"""Command line front end: solve, simulate, exact, net, gen, and ratio subcommands."""

import argparse
import hashlib
import sys
import time

from . import __version__
from ._rng import stream
from .diffusion import EXACT_EDGE_LIMIT, default_sample_count, estimate_sigma, exact_sigma
from .instance import _instance_doc, dump_json, numerical_rank, parse_instance
from .net import MAX_NET_POINTS, NetSizeError, build_net
from .sdg import E_COMPLEMENT, SdgConfig, approximation_ratio, solve


def _parse_indices(text):
    text = (text or "").strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"index lists are comma-separated integers: {exc}") from exc


def _dump(obj):
    return dump_json(obj) + "\n"


def _load_instance(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    return parse_instance(raw), hashlib.sha256(raw).hexdigest()


def _manifest(args, checksum, elapsed_ms):
    # only settings that took effect: no unset options, and no delta when
    # --samples replaces the sample counts delta would size
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    if "samples" in config:
        config.pop("delta", None)
    return {
        "command": args.command,
        "config": config,
        "master_seed": getattr(args, "seed", None),
        "instance_checksum": checksum,
        "version": __version__,
        "elapsed_ms": elapsed_ms,
    }


def _emit(args, payload, checksum, started):
    text = _dump(payload)
    elapsed_ms = round(1000.0 * (time.perf_counter() - started), 3)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(_dump(_manifest(args, checksum, elapsed_ms)))
    print(f"done in {elapsed_ms} ms", file=sys.stderr)


def _cmd_solve(args, instance):
    config = SdgConfig(
        epsilon=args.epsilon,
        delta=args.delta,
        samples_per_eval=args.samples,
        master_seed=args.seed,
        max_net_points=args.max_net_points,
    )
    solution, report = solve(instance, config)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(_dump(report))
    return {
        "providers": list(solution.providers),
        "consumers": list(solution.consumers),
        "value": solution.value.mean,
        "std_error": solution.value.std_error,
        "net_size": len(report),
        "net_searched": sum(not row["pruned"] for row in report),
        "rank": solution.rank,
        "guarantee": approximation_ratio(args.epsilon) if args.epsilon <= E_COMPLEMENT else None,
    }


def _cmd_simulate(args, instance):
    est = estimate_sigma(
        instance,
        _parse_indices(args.x),
        _parse_indices(args.y),
        args.samples,
        stream(args.seed, "simulate"),
    )
    return {"mean": est.mean, "std_error": est.std_error, "samples": est.samples}


def _cmd_exact(args, instance):
    value = exact_sigma(instance, _parse_indices(args.x), _parse_indices(args.y))
    return {"mean": value, "std_error": 0.0, "samples": 0}


def _cmd_net(args, instance):
    basis = numerical_rank(instance.bipartite)
    net = build_net(instance.bipartite, basis, args.epsilon, instance.bit_precision)
    return {
        "r": len(basis),
        "grid_size": net.grid_size,
        "count": len(net),
        "points": net.points.tolist(),
    }


def _parse_params(text):
    params = {}
    for part in (text or "").split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"parameters are K=V pairs, got {part!r}")
        key, value = part.split("=", 1)
        key = key.strip()
        if key in params:
            raise ValueError(f"parameter {key!r} given twice")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = float(value)
    return params


def _cmd_gen(args, _):
    from .generators import gen_from_params

    # three_layer draws nothing, so it takes no seed and its manifest records none
    if args.family == "three_layer":
        if args.seed is not None:
            raise ValueError("family three_layer draws nothing and takes no --seed")
    elif args.seed is None:
        args.seed = 0
    instance, extras = gen_from_params(args.family, _parse_params(args.params), args.seed)
    doc = _instance_doc(instance)
    doc.update(extras)
    return doc


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="amphimax",
        description="Two-stage influence seeding: solve, estimate, and generate instances.",
    )
    parser.add_argument("--version", action="version", version=f"amphimax {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True, seed=True):
        if instance:
            p.add_argument("--instance", required=True, help="instance JSON file")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="master random seed")
        p.add_argument("--out", default=None, help="also write the result JSON here (plus a manifest)")

    p = sub.add_parser("solve", help="run the net + double greedy solver")
    common(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument(
        "--samples",
        type=int,
        default=None,
        help="override the RR sets per consumer and per provider pool (estimates take 4x as many runs)",
    )
    p.add_argument("--max-net-points", type=int, default=MAX_NET_POINTS)
    p.add_argument("--report", default=None, help="write per-net-point rows here (pruned points share one row)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", help="Monte Carlo spread estimate for given seed sets")
    common(p)
    p.add_argument("--x", default="", help="provider indices, comma separated")
    p.add_argument("--y", default="", help="consumer indices, comma separated")
    p.add_argument("--samples", type=int, default=default_sample_count())
    p.set_defaults(func=_cmd_simulate)

    text = f"exact spread; at most {EXACT_EDGE_LIMIT} social edges with probability below 1"
    p = sub.add_parser("exact", help=text, description=text)
    common(p, seed=False)
    p.add_argument("--x", default="")
    p.add_argument("--y", default="")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("net", help="build the one-sided coordinate net")
    common(p, seed=False)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=_cmd_net)

    p = sub.add_parser("gen", help="generate a test instance")
    common(p, instance=False)
    p.add_argument("--family", required=True, choices=["rank_r", "planted", "classic_im", "three_layer"])
    p.add_argument("--params", default="", help="comma-separated K=V pairs")
    p.set_defaults(func=_cmd_gen, seed=None)

    p = sub.add_parser("ratio", help="print the worst-case approximation ratio for epsilon")
    p.add_argument("--epsilon", type=float, required=True)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "ratio":
            print(f"{approximation_ratio(args.epsilon):.10g}")
            return 0
        # the time covers reading the instance and writing the result
        started = time.perf_counter()
        instance, checksum = _load_instance(args.instance) if "instance" in args else (None, None)
        _emit(args, args.func(args, instance), checksum, started)
        return 0
    # InstanceFormatError and InstanceValidationError are ValueErrors
    except (NetSizeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())
