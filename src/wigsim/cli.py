"""Command-line front end.

Subcommands: state (Wigner field to CSV), negativity (monotone report),
sweep-states (mean photon vs negativity curves), distill (conditional
protocol sweep to CSV), study (one of the STUDIES to CSVs), validate
(self-check suite).

Exit codes: 0 success, 1 computation or validation failure, 2 usage error.
"""

import argparse
import pathlib
import sys

import numpy as np

from .distill import (
    DistillationConfig,
    default_protocol_grid,
    distill_sweep,
    write_sweep_csv,
)
from .errors import InvalidGridError, PhaseSpaceError
from .grids import build_grid, integrate_full, write_field_csv
from .monotones import fidelity_initial_analytic, log_negativity
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

GAMMA = 0.05

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


def _grid_from_args(args):
    try:
        return build_grid(
            -args.qmax, args.qmax, args.nq, -args.pmax, args.pmax, args.n_p
        )
    except InvalidGridError as exc:
        raise UsageError(str(exc)) from None


def _state_row(spec, grid) -> tuple:
    """(mean photon number, N_L) of one resource state on grid."""
    field = resource_wigner(spec, grid)
    if isinstance(spec, (Number, ON, CubicPhase)):
        mean = mean_photon_analytic(spec)
    else:
        mean = mean_photon_numeric(field)
    return mean, log_negativity(field)


def _family_specs(family, values, N=1, gamma=GAMMA, sign=1, theta=0.0) -> list:
    """Records of one sweep-states family; values are n, |a| or s."""
    if family == "number":
        return [Number(n=n) for n in values]
    if family == "on":
        return [ON(N=N, a=complex(mag, 0.0)) for mag in values]
    if family == "cubic":
        # momentum offset minimizing the mean photon number
        return [
            CubicPhase(gamma=gamma, P=-6.0 * gamma * np.exp(2.0 * s), s=float(s))
            for s in values
        ]
    return [PhotonMod(sign=sign, s=float(s), theta=theta) for s in values]


def _write_curve(path, grid, specs) -> None:
    rows = [_state_row(spec, grid) for spec in specs]
    with open(path, "w") as fh:
        fh.write("mean_photon,neg\n")
        for mean, neg in rows:
            fh.write(f"{mean:.12e},{neg:.12e}\n")
    print(f"wrote {path}  rows={len(rows)}")


def _run_sweep(config, path) -> None:
    outcome = distill_sweep(config)
    write_sweep_csv(outcome, path)
    lo, hi = outcome.window
    line = (
        f"P_suc={outcome.P_suc:.6f} ini_neg={outcome.ini_neg:.6f} "
        f"post_neg={outcome.post_neg:.6f} window=[{lo:.6f},{hi:.6f}]"
    )
    if outcome.post_fid is not None:
        line += f" post_fid={outcome.post_fid:.6f}"
        if isinstance(config.input, CubicPhase):
            ini_fid = fidelity_initial_analytic(config.input.s, config.s_targ)
            line += f" fid_ratio={outcome.post_fid / ini_fid:.6f}"
    print(f"wrote {path}  {line}")


def cmd_state(args) -> int:
    field = resource_wigner(parse_state_spec(args.spec), _grid_from_args(args))
    write_field_csv(field, args.out)
    print(f"wrote {args.out}  integral={integrate_full(field):.6f}")
    return 0


def cmd_negativity(args) -> int:
    spec = parse_state_spec(args.spec)
    mean, neg = _state_row(spec, _grid_from_args(args))
    print(f"N_L = {neg:.6f}")
    print(f"mean_photon = {mean:.6f}")
    return 0


def cmd_sweep_states(args) -> int:
    grid = _grid_from_args(args)
    if args.family == "number":
        if args.n_max < args.n_min:
            raise SpecStringError("empty range: n-max < n-min")
        values = range(args.n_min, args.n_max + 1)
    elif args.steps < 1:
        raise SpecStringError("empty range: steps < 1")
    elif args.family == "on":
        if args.a_min <= 0:
            raise SpecStringError("empty range: a-min must be positive")
        if args.a_max < args.a_min:
            raise SpecStringError("empty range: a-max < a-min")
        values = np.linspace(args.a_min, args.a_max, args.steps)
    elif args.s_max < args.s_min:
        raise SpecStringError("empty range: s-max < s-min")
    else:
        values = np.linspace(args.s_min, args.s_max, args.steps)
    specs = _family_specs(
        args.family, values, args.N, args.gamma, args.sign, args.theta
    )
    _write_curve(args.out, grid, specs)
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
    _run_sweep(config, args.out)
    return 0


def _bound_study():
    # the full-range average bound over the (t, s) matrix of criterion 06
    grid = default_protocol_grid()
    for t in (0.9, 0.95, 0.99):
        for s in (0.2, 0.6, 1.0):
            yield f"bound_t{t}_s{s}.csv", DistillationConfig(
                input=CubicPhase(GAMMA, 0.0, s), t=t, target_P_suc=1.0,
                input_grid=grid, output_grid=grid,
            )


def _effect_study():
    # the one-percent windows of criterion 07: s = 1.0 gains fidelity toward
    # the s = 4 target, s = 1.6 does not; p_v is dense where the window lands
    legs = (
        (1.0, (20, 1281, 64, 2049),
         np.r_[np.arange(-6, -4, 0.25), np.arange(-4, -1.5, 0.05),
               np.arange(-1.5, 6.0001, 0.25)]),
        (1.6, (24, 1537, 96, 3073),
         np.r_[np.arange(-6, -4, 0.5), np.arange(-4, -1, 0.1),
               np.arange(-1, 6.0001, 0.5)]),
    )
    for s, (qm, nq, pm, n_p), p_v in legs:
        grid = build_grid(-qm, qm, nq, -pm, pm, n_p)
        yield f"effect_s{s}.csv", DistillationConfig(
            input=CubicPhase(GAMMA, 0.0, s), t=0.99, p_v_samples=p_v,
            target_P_suc=0.01, s_targ=4.0, input_grid=grid, output_grid=grid,
        )


def _curves_study():
    # mean photon vs N_L per family; the cubic family's p-tails need the
    # taller grid
    square = build_grid(-16.0, 16.0, 1025, -16.0, 16.0, 1025)
    tall = build_grid(-16.0, 16.0, 1025, -40.0, 40.0, 2561)
    s_values = np.linspace(0.1, 1.2, 25)
    yield "number.csv", (square, _family_specs("number", range(7)))
    for N in (1, 2, 3):
        specs = _family_specs("on", np.linspace(0.05, 1.0, 25), N=N)
        yield f"on_{N}.csv", (square, specs)
    yield "cubic.csv", (tall, _family_specs("cubic", s_values))
    yield "subtract.csv", (square, _family_specs("pmod", s_values, sign=-1))
    yield "add.csv", (square, _family_specs("pmod", s_values, sign=1))


# each study yields (file name, job): a DistillationConfig, or a
# (grid, specs) curve
STUDIES = {"bound": _bound_study, "effect": _effect_study, "curves": _curves_study}


def cmd_study(args) -> int:
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, job in STUDIES[args.name]():
        if isinstance(job, DistillationConfig):
            _run_sweep(job, outdir / name)
        else:
            _write_curve(outdir / name, *job)
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
    p.add_argument("--gamma", type=float, default=GAMMA)
    p.add_argument("--sign", type=int, default=1, choices=(1, -1))
    p.add_argument("--theta", type=float, default=0.0)
    _add_grid_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_states)

    p = sub.add_parser("distill", help="run a conditional distillation sweep")
    p.add_argument("--gamma", type=float, default=GAMMA)
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

    p = sub.add_parser("study", help="run one of the STUDIES, one CSV per sweep")
    p.add_argument("name", choices=tuple(STUDIES))
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_study)

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
