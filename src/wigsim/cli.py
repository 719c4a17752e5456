"""Command-line front end.

Subcommands: state (Wigner field to CSV), negativity (N_L and mean photon
number of one or more states, printed or as a curve CSV), distill
(conditional protocol sweep to CSV), study (one of the STUDIES to CSVs),
validate (self-check suite).

Exit codes: 0 success, 1 computation or validation failure, 2 usage error.
"""

import argparse
import contextlib
import os
import pathlib
import sys

import numpy as np

from .distill import (
    DEFAULT_TRANSMITTANCE,
    DistillationConfig,
    default_protocol_grid,
    distill_sweep,
    write_sweep_csv,
)
from .errors import InvalidGridError, PhaseSpaceError
from .grids import build_grid, default_grid, integrate_full, write_field_csv
from .monotones import fidelity_initial_analytic, log_negativity
from .states import (
    ON,
    CubicPhase,
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


# family -> (record builder, {key: (converter, default)}); a key whose
# default is None is required
FAMILIES = {
    "number": (Number, {"n": (int, None)}),
    "on": (
        lambda N, are, aim: ON(N=N, a=complex(are, aim)),
        {"N": (int, None), "are": (float, 0.0), "aim": (float, 0.0)},
    ),
    "cubic": (
        CubicPhase, {"gamma": (float, None), "P": (float, None), "s": (float, None)}
    ),
    "pmod": (
        PhotonMod, {"sign": (int, None), "s": (float, None), "theta": (float, 0.0)}
    ),
}


def _parse_fields(body: str, keys: dict, family: str) -> dict:
    out = {}
    if body:
        for item in body.split(","):
            if "=" not in item:
                raise SpecStringError(f"malformed item {item!r} in {family} spec")
            key, _, raw = item.partition("=")
            if key not in keys:
                raise SpecStringError(f"unknown key {key!r} for family {family!r}")
            if key in out:
                raise SpecStringError(f"duplicate key {key!r}")
            try:
                out[key] = keys[key][0](raw)
            except ValueError:
                raise SpecStringError(f"bad value {raw!r} for key {key!r}")
    missing = [k for k, (_, dflt) in keys.items() if dflt is None and k not in out]
    if missing:
        raise SpecStringError(f"family {family!r} needs keys {', '.join(missing)}")
    return {k: out.get(k, dflt) for k, (_, dflt) in keys.items()}


def parse_state_spec(text: str):
    """Parse a family:key=value,... spec string into a resource-state record."""
    family, _, body = text.partition(":")
    family = family.strip().lower()
    if family not in FAMILIES:
        raise SpecStringError(f"unknown family {family!r}")
    record, keys = FAMILIES[family]
    kw = _parse_fields(body, keys, family)
    try:
        return record(**kw)
    except ValueError as exc:
        # a value the record rejects is a spec problem too
        raise SpecStringError(f"{text}: {exc}") from None


def _add_grid_flags(parser, grid):
    # defaults are the protocol grid's extents, taller in p than in q: the
    # cubic family keeps visible tail mass out to |p| ~ 30 at s = 1
    q, p = grid.axes
    parser.add_argument("--qmax", type=float, default=float(q[-1]))
    parser.add_argument("--nq", type=int, default=q.size)
    parser.add_argument("--pmax", type=float, default=float(p[-1]))
    parser.add_argument("--np", dest="n_p", type=int, default=p.size)


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


@contextlib.contextmanager
def _naming_overflow(text):
    # powers of huge finite parameters raise OverflowError with a bare errno
    # tuple as its message; name the state it came from instead
    try:
        yield
    except OverflowError:
        raise OverflowError(
            f"{text}: overflow: a parameter is too large to evaluate this state"
        ) from None


def _write_curve(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("mean_photon,neg\n")
        for mean, neg in rows:
            fh.write(f"{mean:.12e},{neg:.12e}\n")
    print(f"wrote {path}  rows={len(rows)}")


def _check_out(path) -> None:
    out = pathlib.Path(path).absolute()
    if out.is_dir() or not (out.parent.is_dir() and os.access(out.parent, os.W_OK)):
        raise UsageError(f"cannot write {path}: not a file in a writable directory")


def _run_sweep(config, path) -> None:
    outcome = distill_sweep(config)
    write_sweep_csv(outcome, path)
    lo, hi = outcome.window
    line = (
        f"P_suc={outcome.P_suc:.6f} rate_bound={outcome.rate_bound:.6f} "
        f"avg_l1={outcome.avg_l1:.6f} "
        f"ini_neg={outcome.ini_neg:.6f} "
        f"post_neg={outcome.post_neg:.6f} window=[{lo:.6f},{hi:.6f}]"
    )
    if outcome.post_fid is not None:
        # fidelity tracking implies a cubic-phase input
        ini_fid = fidelity_initial_analytic(config.input.s, config.s_targ)
        line += f" post_fid={outcome.post_fid:.6f}"
        line += f" fid_ratio={outcome.post_fid / ini_fid:.6f}"
    print(f"wrote {path}  {line}")


def cmd_state(args) -> int:
    spec = parse_state_spec(args.spec)
    grid = _grid_from_args(args)
    with _naming_overflow(args.spec):
        field = resource_wigner(spec, grid)
    write_field_csv(field, args.out)
    print(f"wrote {args.out}  integral={integrate_full(field):.6f}")
    return 0


def cmd_negativity(args) -> int:
    # every spec is parsed and checked before any field is computed or file
    # written
    specs = [parse_state_spec(text) for text in args.spec]
    grid = _grid_from_args(args)
    rows = []
    for text, spec in zip(args.spec, specs):
        with _naming_overflow(text):
            rows.append(_state_row(spec, grid))
    if args.out is not None:
        _write_curve(args.out, rows)
        return 0
    for mean, neg in rows:
        print(f"N_L = {neg:.6f}")
        print(f"mean_photon = {mean:.6f}")
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
                input_grid=grid,
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
            target_P_suc=0.01, s_targ=4.0, input_grid=grid,
        )


def _curves_study():
    # mean photon vs N_L per family; the cubic family's p-tails need the
    # taller grid
    square = default_grid()
    tall = build_grid(-16.0, 16.0, 1025, -40.0, 40.0, 2561)
    s_values = np.linspace(0.1, 1.2, 25).tolist()
    yield "number.csv", (square, [Number(n) for n in range(7)])
    for N in (1, 2, 3):
        specs = [ON(N, mag) for mag in np.linspace(0.05, 1.0, 25).tolist()]
        yield f"on_{N}.csv", (square, specs)
    # the momentum offset P = -6 gamma e^{2s} minimizes the mean photon number
    specs = [CubicPhase(GAMMA, -6.0 * GAMMA * np.exp(2.0 * s), s) for s in s_values]
    yield "cubic.csv", (tall, specs)
    yield "subtract.csv", (square, [PhotonMod(-1, s, 0.0) for s in s_values])
    yield "add.csv", (square, [PhotonMod(1, s, 0.0) for s in s_values])


# each study yields (file name, job): a DistillationConfig, or a
# (grid, specs) curve
STUDIES = {"bound": _bound_study, "effect": _effect_study, "curves": _curves_study}


def cmd_study(args) -> int:
    outdir = pathlib.Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot write to {args.outdir}: {exc.strerror}") from None
    for name, job in STUDIES[args.name]():
        if isinstance(job, DistillationConfig):
            _run_sweep(job, outdir / name)
        else:
            grid, specs = job
            _write_curve(outdir / name, [_state_row(spec, grid) for spec in specs])
    return 0


def cmd_validate(args) -> int:
    from .validation import run_validation

    return 0 if run_validation() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wigsim",
        description="Phase-space simulation of continuous-variable states.",
        epilog=GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    grid = default_protocol_grid()

    p = sub.add_parser("state", help="write a resource-state Wigner field CSV")
    p.add_argument("spec", help="resource spec string, see grammar")
    _add_grid_flags(p, grid)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_state)

    p = sub.add_parser(
        "negativity",
        help="print N_L and mean photon number, or write them as a curve CSV",
    )
    p.add_argument("spec", nargs="+", help="resource spec strings, see grammar")
    _add_grid_flags(p, grid)
    p.add_argument("--out", help="write a mean_photon,neg CSV, one row per spec")
    p.set_defaults(func=cmd_negativity)

    p = sub.add_parser("distill", help="run a conditional distillation sweep")
    p.add_argument("--gamma", type=float, default=GAMMA)
    p.add_argument("--s-ini", type=float, default=1.0)
    p.add_argument("--t", type=float, default=DEFAULT_TRANSMITTANCE)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--psuc", type=float, default=None)
    group.add_argument("--window", type=float, nargs=2, default=None,
                       metavar=("LO", "HI"))
    p.add_argument("--s-targ", type=float, default=None)
    _add_grid_flags(p, grid)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("study", help="run one of the STUDIES, one CSV per sweep")
    p.add_argument("name", choices=tuple(STUDIES))
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("validate", help="run the self-check suite")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an unwritable --out fails here, before any field is computed
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
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
