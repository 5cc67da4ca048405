"""Command-line frontend.

One executable with subcommands; all flags, no environment variables, so a
command line fully determines its output.  With --output json the result is
a single JSON document; identical inputs produce byte-identical output.

Exit codes: 0 success, 2 input error, 3 size-limit refusal, 4 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalCheckError, LimitExceeded, SclflowError
from .linprog import rat_to_json

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4


@dataclass
class RunConfig:
    bound: int = 3
    stabilize: bool = True
    seed: int = 0
    output: str = "text"


_CONFIG_TYPES = {"bound": int, "stabilize": bool, "seed": int, "output": str}


def _load_json(path: str):
    """The JSON document in a file; malformed JSON is an input error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InputError(f"{path}: not valid JSON ({exc})") from exc


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        data = _load_json(args.config)
        if not isinstance(data, dict):
            raise InputError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(data) - set(_CONFIG_TYPES))
        if unknown:
            raise InputError(f"{args.config}: unknown config keys {unknown}; "
                             f"known keys are {sorted(_CONFIG_TYPES)}")
        for key, typ in _CONFIG_TYPES.items():
            if key in data:
                # exact type: JSON true/false must not pass for an int
                if type(data[key]) is not typ:
                    raise InputError(f"{args.config}: {key!r} must be of type "
                                     f"{typ.__name__}, got {data[key]!r}")
                setattr(cfg, key, data[key])
        if cfg.output not in ("text", "json"):
            raise InputError(f"{args.config}: 'output' must be 'text' or 'json'")
    # flags win over the config file
    if getattr(args, "bound", None) is not None:
        cfg.bound = args.bound
    if getattr(args, "no_stabilize", False):
        cfg.stabilize = False
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "output", None):
        cfg.output = args.output
    return cfg


def _emit(payload: dict, text: str, cfg: RunConfig) -> None:
    if cfg.output == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(text)


def _fr(x: Fraction) -> str:
    return str(x)


def _parse_values(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise InputError(f"bad integer list {raw!r}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_compute(args) -> int:
    from .engine import scl
    from .words import parse_word

    cfg = _config_from_args(args)
    w = parse_word(args.word)
    res = scl(w, bound=cfg.bound, stabilize=cfg.stabilize)
    _emit(res.to_json(),
          f"scl = {_fr(res.value)} ({res.status}, bound {res.bound_used})", cfg)
    return EXIT_OK


def cmd_bounds(args) -> int:
    from .bounds import lower_bound
    from .engine import scl
    from .words import parse_word

    cfg = _config_from_args(args)
    w = parse_word(args.word)
    lo = lower_bound(w)
    res = scl(w, bound=cfg.bound, stabilize=cfg.stabilize)
    payload = {"lower": rat_to_json(lo), "upper": rat_to_json(res.value),
               "certified_exact": lo == res.value, "status": res.status}
    _emit(payload,
          f"bracket ({_fr(lo)}, {_fr(res.value)})"
          + (" -- certified exact" if lo == res.value else ""), cfg)
    return EXIT_OK


def cmd_universal(args) -> int:
    from .bounds import universal_word
    from .engine import scl
    from .words import render_word, word_to_json

    cfg = _config_from_args(args)
    w = universal_word(args.n)
    payload = {"word": render_word(w), "json": word_to_json(w)}
    text = f"word: {render_word(w)}"
    if args.compute:
        res = scl(w, bound=cfg.bound, stabilize=cfg.stabilize)
        payload["scl"] = rat_to_json(res.value)
        payload["status"] = res.status
        text += f"\nscl = {_fr(res.value)} ({res.status})"
    _emit(payload, text, cfg)
    return EXIT_OK


def cmd_generic(args) -> int:
    from .bounds import lower_bound, sample_generic_word
    from .engine import scl
    from .words import render_word, word_to_json

    cfg = _config_from_args(args)
    w = sample_generic_word(args.n, cfg.seed)
    lo = lower_bound(w)
    payload = {"word": render_word(w), "json": word_to_json(w),
               "lower": rat_to_json(lo)}
    text = f"word: {render_word(w)}\nlower bound: {_fr(lo)}"
    if args.compute:
        res = scl(w, bound=cfg.bound, stabilize=cfg.stabilize)
        payload["scl"] = rat_to_json(res.value)
        payload["status"] = res.status
        text += f"\nscl = {_fr(res.value)} ({res.status})"
    _emit(payload, text, cfg)
    return EXIT_OK


def cmd_discs(args) -> int:
    from .cones import enumerate_disc_vectors
    from .graphs import flow_to_json

    cfg = _config_from_args(args)
    spec = _spec_from_args(args)
    discs = enumerate_disc_vectors(spec, args.disc_bound)
    payload = {"count": len(discs), "discs": [flow_to_json(d) for d in discs]}
    _emit(payload, f"{len(discs)} disc vectors at bound {args.disc_bound}", cfg)
    return EXIT_OK


def _spec_from_args(args):
    from .cones import cone_spec
    from .words import parse_word

    w = parse_word(args.word)
    side = getattr(args, "side", "a")
    mat = w.x if side == "a" else w.y
    return cone_spec(w.n, mat.rows)


def cmd_essential(args) -> int:
    from .cones import is_essential
    from .graphs import flow_from_json

    cfg = _config_from_args(args)
    spec = _spec_from_args(args)
    d = flow_from_json(_load_json(args.disc))
    ess = is_essential(spec, d)
    _emit({"essential": ess}, f"essential: {ess}", cfg)
    return EXIT_OK


def cmd_rays(args) -> int:
    from .cones import extremal_rays
    from .graphs import flow_to_json

    cfg = _config_from_args(args)
    spec = _spec_from_args(args)
    rays = extremal_rays(spec)
    payload = {"count": len(rays), "rays": [flow_to_json(r) for r in rays]}
    _emit(payload, f"{len(rays)} extremal rays", cfg)
    return EXIT_OK


def cmd_gadget(args) -> int:
    from .hardness import (
        build_table,
        collapse,
        decide_small_scl,
        essential_gadget_answer,
        instance,
        instance_to_json,
        reduce_ss_to_smallscl,
        small_scl_instance,
        solve_subset,
    )
    from .words import render_word

    cfg = _config_from_args(args)
    sub = args.gadget_cmd
    if sub == "subset":
        inst = instance(args.variant, _parse_values(args.values))
        ans = solve_subset(inst)
        payload = {"instance": instance_to_json(inst), "answer": ans.answer,
                   "witness": list(ans.witness) if ans.witness else None}
        _emit(payload, f"answer: {ans.answer} witness: {ans.witness}", cfg)
    elif sub == "table":
        table = build_table(_parse_values(args.values), args.r)
        payload = {"base": list(table.base), "r": table.r,
                   "labels": table.labels(),
                   "columns": [list(c) for c in table.columns]}
        _emit(payload, "\n".join(f"{lbl}: {list(col)}" for lbl, col in
                                 zip(table.labels(), table.columns)), cfg)
    elif sub == "collapse":
        data = _load_json(args.file)
        vectors = data.get("vectors") if isinstance(data, dict) else None
        if not (isinstance(vectors, list) and all(
                isinstance(v, list) and all(type(c) is int for c in v)
                for v in vectors)):
            raise InputError(f"{args.file}: expected {{\"vectors\": "
                             "[[int, ...], ...]}")
        out = collapse(vectors, args.usage_bound)
        _emit({"collapsed": out}, f"collapsed: {out}", cfg)
    elif sub == "smallscl":
        vals = _parse_values(args.values)
        w = small_scl_instance(vals)
        decision = decide_small_scl(vals)
        payload = {"word": render_word(w), "below_threshold": decision.answer,
                   "route": decision.route, "detail": decision.detail}
        _emit(payload,
              f"word: {render_word(w)}\nscl below threshold: "
              f"{decision.answer} via {decision.route} ({decision.detail})", cfg)
    elif sub == "reduce":
        transcript = reduce_ss_to_smallscl(_parse_values(args.values))
        payload = transcript.to_json()
        text = (f"answer: {transcript.answer}\n" +
                "\n".join(f"r={s.r}: {s.mixed_answer} via {s.route}"
                          for s in transcript.steps))
        _emit(payload, text, cfg)
    elif sub == "essential":
        vals = _parse_values(args.values)
        ans = essential_gadget_answer(vals)
        _emit({"no_zero_subset": ans}, f"no zero-sum subset: {ans}", cfg)
    else:  # pragma: no cover
        raise InputError(f"unknown gadget subcommand {sub!r}")
    return EXIT_OK


def cmd_synth(args) -> int:
    from .graphs import graph_from_json
    from .synth import synthesize_extremal

    cfg = _config_from_args(args)
    g = graph_from_json(_load_json(args.graph))
    result = synthesize_extremal(g)
    payload = result.to_json()
    text = (f"flow on graph: {list(result.f_vals)} (distinguished edge "
            f"{result.e_star})\nweights: {list(result.weights)}\n"
            f"complete digraph size: {len(result.vertex_weight)}\n"
            f"checks: {result.checks}")
    _emit(payload, text, cfg)
    return EXIT_OK


def cmd_conjecture(args) -> int:
    from .bounds import conjecture_check

    cfg = _config_from_args(args)
    n = args.p + args.q + args.r
    report = conjecture_check(n, args.p, args.q, args.r, bound=cfg.bound)
    payload = {"predicted": rat_to_json(report.predicted),
               "computed": rat_to_json(report.computed.value),
               "status": report.computed.status,
               "agrees": report.agrees()}
    _emit(payload,
          f"predicted {_fr(report.predicted)}, computed "
          f"{_fr(report.computed.value)} [{report.computed.status}] -> "
          + ("agrees" if report.agrees() else "differs"), cfg)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .acceptance import ALL_CRITERIA, run_all, scorecard

    cfg = _config_from_args(args)
    only = None
    if args.only:
        try:
            only = [int(tok) for tok in args.only.split(",")]
        except ValueError as exc:
            raise InputError(f"bad criterion list {args.only!r}") from exc
        if not set(only) <= set(range(1, len(ALL_CRITERIA) + 1)):
            raise InputError(f"criterion ids run from 1 to {len(ALL_CRITERIA)}, "
                             f"got {args.only!r}")
    results = run_all(only=only)
    card = scorecard(results)
    if args.timings:
        # wall times vary run to run, so they stay out of the default output
        for entry, r in zip(card["criteria"], results):
            entry["seconds"] = round(r.seconds, 3)
    if cfg.output == "json":
        print(json.dumps(card, sort_keys=True, separators=(",", ":")))
    else:
        for r in results:
            print(r.line() + (f" [{r.seconds:.2f} s]" if args.timings else ""))
        print("all passed" if card["all_passed"] else "FAILURES PRESENT")
    return EXIT_OK if card["all_passed"] else EXIT_INTERNAL


# ---------------------------------------------------------------------------

def _common_flags() -> argparse.ArgumentParser:
    # shared flags accepted before or after the subcommand; SUPPRESS keeps
    # a subcommand's unset flags from clobbering values parsed earlier
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("text", "json"),
                        default=argparse.SUPPRESS)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config file; flags win")
    common.add_argument("--bound", type=int, default=argparse.SUPPRESS,
                        help="disc-vector outflow bound (default 3)")
    common.add_argument("--no-stabilize", action="store_true",
                        default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="scl",
        description="Exact stable-commutator-length toolkit for free "
                    "products of free abelian groups",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="scl of a word", parents=[common])
    p.add_argument("word")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("bounds", help="lower/upper bracket of a word", parents=[common])
    p.add_argument("word")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("universal", help="the maximizing word of a given size", parents=[common])
    p.add_argument("n", type=int)
    p.add_argument("--compute", action="store_true")
    p.set_defaults(fn=cmd_universal)

    p = sub.add_parser("generic", help="sample a generic word", parents=[common])
    p.add_argument("n", type=int)
    p.add_argument("--compute", action="store_true")
    p.set_defaults(fn=cmd_generic)

    p = sub.add_parser("discs", help="disc vectors of a word-side cone", parents=[common])
    p.add_argument("word")
    p.add_argument("--side", choices=("a", "b"), default="a")
    p.add_argument("--disc-bound", type=int, default=2)
    p.set_defaults(fn=cmd_discs)

    p = sub.add_parser("essential", help="essentiality of a disc vector", parents=[common])
    p.add_argument("word")
    p.add_argument("--side", choices=("a", "b"), default="a")
    p.add_argument("--disc", required=True, help="flow JSON file")
    p.set_defaults(fn=cmd_essential)

    p = sub.add_parser("rays", help="extremal rays of a word-side cone", parents=[common])
    p.add_argument("word")
    p.add_argument("--side", choices=("a", "b"), default="a")
    p.set_defaults(fn=cmd_rays)

    p = sub.add_parser("gadget", help="subset-sum reduction machinery", parents=[common])
    gsub = p.add_subparsers(dest="gadget_cmd", required=True)
    g = gsub.add_parser("subset", parents=[common])
    g.add_argument("--variant", choices=("SS", "SSP", "VARSSP", "MIXEDSSP", "COSS"),
                   default="SS")
    g.add_argument("--values", required=True)
    g = gsub.add_parser("table", parents=[common])
    g.add_argument("--values", required=True)
    g.add_argument("--r", type=int, required=True)
    g = gsub.add_parser("collapse", parents=[common])
    g.add_argument("--file", required=True, help="instance JSON file")
    g.add_argument("--usage-bound", type=int, required=True)
    g = gsub.add_parser("smallscl", parents=[common])
    g.add_argument("--values", required=True)
    g = gsub.add_parser("reduce", parents=[common])
    g.add_argument("--values", required=True)
    g = gsub.add_parser("essential", parents=[common])
    g.add_argument("--values", required=True)
    p.set_defaults(fn=cmd_gadget)

    p = sub.add_parser("synth", help="extremal point with a given abstract graph", parents=[common])
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("conjecture", parents=[common],
                       help="gcd-formula check for one p, q, r")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)
    p.set_defaults(fn=cmd_conjecture)

    p = sub.add_parser("verify", help="run the acceptance scorecard", parents=[common])
    p.add_argument("--only", help="comma-separated criterion ids")
    p.add_argument("--timings", action="store_true",
                   help="add each criterion's wall time in seconds")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # every option takes one value, but argparse before Python 3.12 turns
    # a lone "--" value (as in --values=--) into an empty list
    for name, value in vars(args).items():
        if isinstance(value, list):
            print(f"input error: --{name.replace('_', '-')} needs a value",
                  file=sys.stderr)
            return EXIT_INPUT
    try:
        return args.fn(args)
    except (InputError,) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LimitExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except InternalCheckError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except SclflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
