"""Command-line front end.

Subcommands: state (Wigner field to CSV), negativity (monotone report),
sweep-states (mean photon vs negativity curves), distill (conditional
protocol sweep to CSV), validate (self-check suite).

Exit codes: 0 success, 1 computation or validation failure, 2 usage error.
"""

import argparse
import sys

import numpy as np

from .distill import DistillationConfig, distill_sweep, write_sweep_csv
from .errors import PhaseSpaceError
from .grids import build_grid, field_from_samples, integrate_full, write_field_csv
from .monotones import log_negativity
from .states import (
    ON,
    CubicPhase,
    IdealCubic,
    Number,
    PhotonMod,
    mean_photon_analytic,
    mean_photon_numeric,
    resource_wigner,
)

GRAMMAR = """\
spec string grammar: family:key=value,key=value,...
  number:n=<int>
  on:N=<int>,are=<real>,aim=<real>      a = are + i*aim, both default 0
  cubic:gamma=<real>,P=<real>,s=<real>
  ideal:gamma=<real>,P=<real>
  pmod:sign=<1|-1>,s=<real>,theta=<real>
examples:
  number:n=1
  on:N=3,aim=0.2449
  cubic:gamma=0.05,P=0,s=1
  pmod:sign=-1,s=0.5,theta=0
"""


class SpecStringError(ValueError):
    # spec-string problems print the grammar; other usage errors do not
    pass


class UsageError(ValueError):
    pass


def _parse_fields(body: str, spec: dict, family: str) -> dict:
    # spec maps key -> (converter, required)
    out = {}
    if body:
        for item in body.split(","):
            if "=" not in item:
                raise SpecStringError(f"malformed item {item!r} in {family} spec")
            key, _, raw = item.partition("=")
            if key not in spec:
                raise SpecStringError(f"unknown key {key!r} for family {family!r}")
            if key in out:
                raise SpecStringError(f"duplicate key {key!r}")
            try:
                out[key] = spec[key][0](raw)
            except ValueError:
                raise SpecStringError(f"bad value {raw!r} for key {key!r}")
    missing = [k for k, (_, req) in spec.items() if req and k not in out]
    if missing:
        raise SpecStringError(f"family {family!r} needs keys {', '.join(missing)}")
    return out


def parse_state_spec(text: str):
    """Parse a family:key=value,... spec string into a resource-state record."""
    family, _, body = text.partition(":")
    family = family.strip().lower()
    if family == "number":
        kw = _parse_fields(body, {"n": (int, True)}, family)
        return Number(n=kw["n"])
    if family == "on":
        kw = _parse_fields(
            body, {"N": (int, True), "are": (float, False), "aim": (float, False)},
            family,
        )
        return ON(N=kw["N"], a=complex(kw.get("are", 0.0), kw.get("aim", 0.0)))
    if family == "cubic":
        kw = _parse_fields(
            body,
            {"gamma": (float, True), "P": (float, True), "s": (float, True)},
            family,
        )
        return CubicPhase(gamma=kw["gamma"], P=kw["P"], s=kw["s"])
    if family == "ideal":
        kw = _parse_fields(
            body, {"gamma": (float, True), "P": (float, True)}, family
        )
        return IdealCubic(gamma=kw["gamma"], P=kw["P"])
    if family == "pmod":
        kw = _parse_fields(
            body,
            {"sign": (int, True), "s": (float, True), "theta": (float, False)},
            family,
        )
        return PhotonMod(sign=kw["sign"], s=kw["s"], theta=kw.get("theta", 0.0))
    raise SpecStringError(f"unknown family {family!r}")


def _add_grid_flags(parser):
    # p default is taller than q: the cubic family keeps visible tail mass
    # out to |p| ~ 30 at s = 1 and the sweep aggregates need that mass
    parser.add_argument("--qmax", type=float, default=16.0)
    parser.add_argument("--nq", type=int, default=1025)
    parser.add_argument("--pmax", type=float, default=32.0)
    parser.add_argument("--np", dest="n_p", type=int, default=2049)
    parser.add_argument("--tol", type=float, default=1e-3,
                        help="normalization tolerance for the generated field")


def _grid_from_args(args):
    return build_grid(
        -args.qmax, args.qmax, args.nq, -args.pmax, args.pmax, args.n_p
    )


def _field_from_args(args):
    spec = parse_state_spec(args.spec)
    grid = _grid_from_args(args)
    field = resource_wigner(spec, grid)
    # re-flag under the user-selected tolerance
    return spec, field_from_samples(grid, field.samples, tol=args.tol)


def cmd_state(args) -> int:
    spec, field = _field_from_args(args)
    write_field_csv(field, args.out)
    print(f"wrote {args.out}  integral={integrate_full(field):.6f}")
    return 0


def cmd_negativity(args) -> int:
    spec, field = _field_from_args(args)
    neg = log_negativity(field)
    if isinstance(spec, (Number, ON, CubicPhase)):
        mean = mean_photon_analytic(spec)
    else:
        mean = mean_photon_numeric(field)
    print(f"N_L = {neg:.6f}")
    print(f"mean_photon = {mean:.6f}")
    return 0


def _sweep_rows(args, grid):
    if args.family == "number":
        if args.n_max < args.n_min:
            raise SpecStringError("empty range: n-max < n-min")
        for n in range(args.n_min, args.n_max + 1):
            spec = Number(n=n)
            field = resource_wigner(spec, grid)
            yield mean_photon_analytic(spec), log_negativity(field)
        return
    if args.steps < 1:
        raise SpecStringError("empty range: steps < 1")
    if args.family == "on":
        mags = np.linspace(args.a_min, args.a_max, args.steps)
        if args.a_min <= 0:
            raise SpecStringError("empty range: a-min must be positive")
        for mag in mags:
            spec = ON(N=args.N, a=complex(mag, 0.0))
            field = resource_wigner(spec, grid)
            yield mean_photon_analytic(spec), log_negativity(field)
        return
    if args.s_max < args.s_min:
        raise SpecStringError("empty range: s-max < s-min")
    svals = np.linspace(args.s_min, args.s_max, args.steps)
    if args.family == "cubic":
        for s in svals:
            # momentum offset minimizing the mean photon number
            P = -6.0 * args.gamma * np.exp(2.0 * s)
            spec = CubicPhase(gamma=args.gamma, P=P, s=float(s))
            field = resource_wigner(spec, grid)
            yield mean_photon_analytic(spec), log_negativity(field)
        return
    if args.family == "pmod":
        for s in svals:
            spec = PhotonMod(sign=args.sign, s=float(s), theta=args.theta)
            field = resource_wigner(spec, grid)
            yield mean_photon_numeric(field), log_negativity(field)
        return
    raise SpecStringError(f"unknown family {args.family!r}")


def cmd_sweep_states(args) -> int:
    grid = _grid_from_args(args)
    rows = list(_sweep_rows(args, grid))
    with open(args.out, "w") as fh:
        fh.write("mean_photon,neg\n")
        for mean, neg in rows:
            fh.write(f"{mean:.12e},{neg:.12e}\n")
    print(f"wrote {args.out}  rows={len(rows)}")
    return 0


def cmd_distill(args) -> int:
    grid = _grid_from_args(args)
    window = tuple(args.window) if args.window is not None else None
    target = args.psuc if window is None else None
    if window is None and target is None:
        target = 1.0
    try:
        config = DistillationConfig(
            input=CubicPhase(gamma=args.gamma, P=0.0, s=args.s_ini),
            t=args.t,
            window=window,
            target_P_suc=target,
            s_targ=args.s_targ,
            input_grid=grid,
            output_grid=grid,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    outcome = distill_sweep(config)
    write_sweep_csv(outcome, args.out)
    line = (
        f"P_suc={outcome.P_suc:.6f} ini_neg={outcome.ini_neg:.6f} "
        f"post_neg={outcome.post_neg:.6f}"
    )
    if outcome.post_fid is not None:
        line += f" post_fid={outcome.post_fid:.6f}"
    print(f"wrote {args.out}  {line}")
    return 0


def cmd_validate(args) -> int:
    from .validation import run_validation

    return 0 if run_validation(fast=args.fast) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wigsim",
        description="Phase-space simulation of continuous-variable states.",
        epilog=GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="write a resource-state Wigner field CSV")
    p.add_argument("spec", help="resource spec string, see grammar")
    _add_grid_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("negativity", help="print N_L and mean photon number")
    p.add_argument("spec")
    _add_grid_flags(p)
    p.set_defaults(func=cmd_negativity)

    p = sub.add_parser("sweep-states", help="mean photon vs negativity CSV")
    p.add_argument("--family", required=True,
                   choices=("number", "on", "cubic", "pmod"))
    p.add_argument("--n-min", type=int, default=0)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--a-min", type=float, default=0.1)
    p.add_argument("--a-max", type=float, default=1.0)
    p.add_argument("--s-min", type=float, default=0.1)
    p.add_argument("--s-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--gamma", type=float, default=0.05)
    p.add_argument("--sign", type=int, default=1, choices=(1, -1))
    p.add_argument("--theta", type=float, default=0.0)
    _add_grid_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_states)

    p = sub.add_parser("distill", help="run a conditional distillation sweep")
    p.add_argument("--gamma", type=float, default=0.05)
    p.add_argument("--s-ini", type=float, default=1.0)
    p.add_argument("--t", type=float, default=0.95)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--psuc", type=float, default=None)
    group.add_argument("--window", type=float, nargs=2, default=None,
                       metavar=("LO", "HI"))
    p.add_argument("--s-targ", type=float, default=None)
    _add_grid_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("validate", help="run the self-check suite")
    p.add_argument("--fast", action="store_true",
                   help="run only the sub-second subset")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecStringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(GRAMMAR, file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PhaseSpaceError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
