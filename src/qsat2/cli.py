"""Command line surface: gen / analyze / count / predict / xi / sweep.

Exit codes: 0 success, 1 standard output closed early, 2 usage error, 3
instance parse error or a file that cannot be opened, read or written, 4
component over the size cap (count only).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .counting import ComponentCapError, check_component_cap, component_value, product_tree
from .graphs import MODELS, label_groups
from .instances import (
    FactorDistribution,
    InstanceParseError,
    ResampleBudgetError,
    format_instance,
    load_instance,
    save_instance,
)
from .stats import functionals, thresholds, xi
from .structure import decouple, phase_label
from .sweep import generate_instance, parse_config, read_cond, read_distribution, run_sweep


def _build_dist(args) -> FactorDistribution:
    return read_distribution(args.f, args.q, lambda key: f"--{key}")


def _cmd_gen(args) -> int:
    dist = _build_dist(args)
    if args.model == "er":
        if args.n is None or args.m is None:
            raise ValueError("er generation requires --n and --m")
        kwargs = dict(n=args.n, m=args.m)
    else:
        if args.L is None or args.p is None:
            raise ValueError("lattice generation requires --L and --p")
        kwargs = dict(L=args.L, p=args.p)
    for key in ("n", "m", "L", "p"):
        if key not in kwargs and getattr(args, key) is not None:
            raise ValueError(f"{args.model} generation does not read --{key}")
    inst = generate_instance(
        model=args.model, dist=dist, seed=args.seed, cond=read_cond(args.cond), **kwargs
    )
    if args.out:
        save_instance(inst, args.out)
    else:
        sys.stdout.write(format_instance(inst))
    return 0


def _cmd_analyze(args) -> int:
    inst = load_instance(args.file)
    dec = decouple(inst, args.cutoff_c)
    rep = dec.report
    # per component of the graph: its frozen vertices and largest residual part
    alive = dec.residual_labels >= 0
    residual = dec.residual_labels[alive]
    frozen_in = np.bincount(rep.labels[~alive], minlength=len(rep.sizes))
    residual_in = np.zeros(len(rep.sizes), dtype=np.int64)
    np.maximum.at(residual_in, rep.labels[alive], np.bincount(residual)[residual])
    frozen_in, residual_in = frozen_in.tolist(), residual_in.tolist()
    print(
        f"instance n={inst.n} m={inst.m} f={inst.dist.f} "
        f"model={inst.graph.model_tag()} cond={inst.conditioning}"
    )
    print(f"cutoff={dec.cutoff} (c*log2(n))")
    frustrated_ids = set(dec.frustrated_components)
    for cid, (size, cls) in enumerate(zip(rep.sizes, rep.classes)):
        if cid in frustrated_ids:
            label = "frustrated"
        else:
            label = phase_label(size, residual_in[cid], dec.cutoff)
        print(
            f"C {cid} size={size} class={cls} frozen={frozen_in[cid]} "
            f"residual_max={residual_in[cid]} label={label}"
        )
    print(
        f"GLOBAL frustrated={int(dec.label == 'frustrated')} label={dec.label} "
        f"frozen={np.count_nonzero(dec.frozen >= 0)} frozen_core={dec.frozen_core} "
        f"max_comp={rep.max_size} residual_max={dec.residual_max}"
    )
    return 0


def _cmd_count(args) -> int:
    check_component_cap(args.max_component)
    inst = load_instance(args.file)
    dec = decouple(inst)
    if dec.label == "frustrated":
        print("VALUE 0 FRUSTRATED")
        return 0
    values = []
    for cid, comp in enumerate(label_groups(dec.residual_labels)):
        val = component_value(inst, comp, args.max_component, frozen=dec.frozen)
        values.append(val)
        print(f"C {cid} {len(comp)} {val}")
    print(f"VALUE {product_tree(values)}")
    return 0


def _cmd_predict(args) -> int:
    dist = _build_dist(args)
    fn = functionals(dist)
    rep = thresholds(dist, model=args.model, n=args.n, gamma=args.gamma, p=args.p)

    def line(name: str, val) -> None:
        if val is None:
            unbounded = name == "gamma_frustrate" and rep.model == "er"
            print(f"{name} = unbounded" if unbounded else f"{name} = n/a")
        elif isinstance(val, Fraction):
            print(f"{name} = {val} = {float(val)!r}")
        else:
            print(f"{name} = {val!r}")

    line("norm2_sq", fn.norm2_sq)
    line("norm3_cu", fn.norm3_cu)
    line("norm4_qu", fn.norm4_qu)
    line("norm_inf", fn.norm_inf)
    line("Q2", fn.q2)
    line("Qinf", fn.qinf)
    line("Qcrux", fn.qcrux)
    line("Qjunct", fn.qjunct)
    line("gamma_disconnect", rep.gamma_disconnect)
    line("gamma_frustrate", rep.gamma_frustrate)
    line("decouple_condition", rep.decouple_condition)
    line("p_c", rep.p_c)
    line("p_fin", rep.p_fin)
    line("domino_scale", rep.domino_scale)
    line("domino_presence", rep.domino_presence)
    return 0


def _cmd_xi(args) -> int:
    print(repr(xi(args.rho)))
    return 0


def _cmd_sweep(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, not {args.threads}")
    with open(args.config, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ValueError(f"{args.config}: non-UTF-8 byte at offset {e.start}") from None
    csv = run_sweep(parse_config(text), threads=args.threads)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(csv)
    return 0


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qsat2",
        description="Random product-constraint 2-QSAT: generation, analysis, counting",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample an instance and write it out")
    p.add_argument("--model", choices=MODELS, default="er")
    p.add_argument("--n", type=int, help="vertex count (er)")
    p.add_argument("--m", type=int, help="edge count (er)")
    p.add_argument("--L", type=int, help="lattice side")
    p.add_argument("--p", type=float, help="bond retention probability")
    p.add_argument("--f", type=int, help="factor count for --q uniform")
    p.add_argument("--q", default="uniform", help="'uniform' or comma list of weights")
    p.add_argument("--cond", choices=["any", "ff"], default="any")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("analyze", help="structural report for an instance file")
    p.add_argument("file")
    p.add_argument("--cutoff-c", type=float, default=3.0, dest="cutoff_c")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("count", help="exact ground-space dimension")
    p.add_argument("file")
    p.add_argument("--max-component", type=int, default=16)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("predict", help="closed-form functionals and thresholds")
    p.add_argument("--f", type=int)
    p.add_argument("--q", default="uniform")
    p.add_argument("--gamma", type=float)
    p.add_argument("--model", choices=MODELS, default="er")
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("xi", help="tree-fraction fixed point")
    p.add_argument("rho", type=float)
    p.set_defaults(func=_cmd_xi)

    p = sub.add_parser("sweep", help="Monte Carlo sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (`qsat2 analyze f | head`); point stdout
        # at devnull so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ComponentCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (InstanceParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, ResampleBudgetError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
