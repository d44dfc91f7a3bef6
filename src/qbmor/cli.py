"""Command-line interface: gen, reduce, simulate, compare, norm.

Exit codes: 0 success, 1 runtime/solver error, 2 usage error,
3 reduction did not converge (artifacts are still written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .dae_transform import (
    build_projectors,
    explicit_ode,
    homogenize_b2,
    homogenized_output_realization,
)
from .dense_solvers import SolverError
from .gramians_norms import truncated_h2_norm
from .mmio import write_json
from .problems import gen_burgers, gen_synthetic_dae, load_system, save_reduced, save_system
from .simulate import InputSignal, Trajectory, compare, simulate_dae, simulate_ode
from .system_model import QbDaeSystem, QbOdeSystem, ReducedQbSystem
from .tqb_irka import IrkaConfig, tqb_irka_dae_saddle, tqb_irka_ode

USAGE_ERROR = 2
RUNTIME_ERROR = 1
NO_CONVERGENCE = 3


def _fail(msg, code=RUNTIME_ERROR):
    print(f"qbmor: error: {msg}", file=sys.stderr)
    return code


def _make_input(text, m):
    if text == "zero":
        return InputSignal.zero(m)
    if text in ("preset:cavity", "preset-cavity"):
        return InputSignal.preset_cavity(m)
    if text.startswith("csv:"):
        path = text[4:]
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            body = np.array([[float(x) for x in line.split(",")]
                             for line in fh if line.strip()])
        if header[0] != "t":
            raise ValueError(f"{path}: input table must start with a 't' column")
        return InputSignal.from_table(body[:, 0], body[:, 1:m + 1])
    raise ValueError(f"unknown input {text!r} "
                     "(use preset:cavity, zero, or csv:PATH)")


def _cmd_gen(args):
    if args.problem == "burgers":
        sys_obj = gen_burgers(args.n, args.nu, args.seed)
    else:
        sys_obj = gen_synthetic_dae(
            args.nv, args.np, m=args.m, p=args.p, seed=args.seed,
            quad_scale=args.quad_scale, symmetric=args.symmetric,
            with_c2=args.with_c2,
        )
    path = save_system(sys_obj, args.out)
    print(path)
    return 0


def _cmd_reduce(args):
    if args.tol <= 0:
        print("qbmor reduce: error: --tol must be positive", file=sys.stderr)
        return USAGE_ERROR
    if args.order < 1:
        print("qbmor reduce: error: --order must be >= 1", file=sys.stderr)
        return USAGE_ERROR
    system = load_system(args.system)
    if isinstance(system, ReducedQbSystem):
        return _fail("cannot reduce an already-reduced model")
    n = system.n if isinstance(system, QbOdeSystem) else system.n_v
    if args.order >= n:
        print("qbmor reduce: error: order must be < state dimension "
              f"({args.order} >= {n})", file=sys.stderr)
        return USAGE_ERROR
    cfg = IrkaConfig(r=args.order, tol=args.tol, max_iters=args.max_iters,
                     seed=args.seed)
    if isinstance(system, QbOdeSystem):
        red, trace = tqb_irka_ode(system, cfg)
    else:
        if system.B2.any():
            hom = homogenize_b2(system)
            corr = homogenized_output_realization(hom)
            red, trace = tqb_irka_dae_saddle(hom.dae, cfg, output_corr=corr)
        else:
            red, trace = tqb_irka_dae_saddle(system, cfg)
    os.makedirs(args.out, exist_ok=True)
    save_reduced(red, args.out)
    payload = trace.to_json_dict()
    payload.update({"order": args.order, "tol": args.tol, "seed": args.seed,
                    "max_iters": args.max_iters})
    write_json(os.path.join(args.out, "trace.json"), payload)
    if not trace.converged:
        print(f"not converged after {trace.iterations} iterations "
              f"(last change {trace.relative_changes[-1]:.3e})", file=sys.stderr)
        return NO_CONVERGENCE
    print(f"converged in {trace.iterations} iterations")
    return 0


def _cmd_simulate(args):
    system = load_system(args.system)
    if isinstance(system, QbDaeSystem):
        u = _make_input(args.input, system.m)
        traj = simulate_dae(system, u, args.t_final, args.dt)
    else:
        u = _make_input(args.input, system.m)
        traj = simulate_ode(system, u, args.t_final, args.dt)
    traj.to_csv(args.out)
    print(args.out)
    return 0


def _cmd_compare(args):
    tf, uf, yf, _ = Trajectory.read_csv(args.full)
    tr, ur, yr, _ = Trajectory.read_csv(args.reduced)
    full = Trajectory(t=tf, states=np.zeros((tf.size, 0)), outputs=yf, inputs=uf)
    red = Trajectory(t=tr, states=np.zeros((tr.size, 0)), outputs=yr, inputs=ur)
    report = compare(full, red)
    write_json(args.out, report)
    print(f"aggregate relative L2 error: {report['aggregate_relative_l2']:.6e}")
    return 0


def _cmd_norm(args):
    system = load_system(args.system)
    if isinstance(system, QbDaeSystem):
        if system.B2.any():
            return _fail("norm of a B2 != 0 descriptor system: homogenize first")
        ode, _ = explicit_ode(system, build_projectors(system))
        value = truncated_h2_norm(ode)
    elif isinstance(system, ReducedQbSystem):
        ode = QbOdeSystem(E=system.Ehat, A=system.Ahat, H=system.Hhat,
                          N=system.Nhat, B=system.Bhat, C=system.Chat)
        value = truncated_h2_norm(ode)
    else:
        value = truncated_h2_norm(system)
    print(f"{value:.12f}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qbmor",
        description="Model reduction toolkit for quadratic-bilinear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a benchmark system")
    gen.add_argument("--problem", choices=["burgers", "synthetic-dae"],
                     required=True)
    gen.add_argument("--n", type=int, default=100, help="Burgers interior nodes")
    gen.add_argument("--nu", type=float, default=0.01, help="Burgers viscosity")
    gen.add_argument("--nv", type=int, default=60, help="descriptor velocity dim")
    gen.add_argument("--np", type=int, default=12, help="descriptor multiplier dim")
    gen.add_argument("--m", type=int, default=2, help="descriptor input count")
    gen.add_argument("--p", type=int, default=2, help="descriptor output count")
    gen.add_argument("--quad-scale", type=float, default=0.1)
    gen.add_argument("--symmetric", action="store_true")
    gen.add_argument("--with-c2", action="store_true")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    red = sub.add_parser("reduce", help="run the reduction iteration")
    red.add_argument("--system", required=True)
    red.add_argument("--order", type=int, required=True)
    red.add_argument("--tol", type=float, default=1e-5)
    red.add_argument("--max-iters", type=int, default=50)
    red.add_argument("--seed", type=int, default=0)
    red.add_argument("--out", required=True)
    red.set_defaults(func=_cmd_reduce)

    sim = sub.add_parser("simulate", help="integrate a system")
    sim.add_argument("--system", required=True)
    sim.add_argument("--input", default="preset:cavity")
    sim.add_argument("--t-final", type=float, required=True)
    sim.add_argument("--dt", type=float, required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    cmp_ = sub.add_parser("compare", help="compare two trajectory CSVs")
    cmp_.add_argument("--full", required=True)
    cmp_.add_argument("--reduced", required=True)
    cmp_.add_argument("--out", required=True)
    cmp_.set_defaults(func=_cmd_compare)

    nrm = sub.add_parser("norm", help="print a system norm")
    nrm.add_argument("--system", required=True)
    nrm.add_argument("--kind", choices=["truncated-h2"], default="truncated-h2")
    nrm.set_defaults(func=_cmd_norm)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except (SolverError, RuntimeError) as exc:
        return _fail(str(exc))
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
