import argparse
import math
import pathlib
import re
import shlex

import numpy as np
import pytest

from wigsim import cli, validation
from wigsim.cli import build_parser, main, parse_state_spec
from wigsim.distill import DistillationConfig
from wigsim.grids import build_grid, read_field_csv
from wigsim.states import ON, CubicPhase, Number, PhotonMod

COARSE = ["--qmax", "10", "--nq", "129", "--pmax", "16", "--np", "257"]


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def stdout_value(out, key):
    match = re.search(rf"{key}\s*=\s*([-+0-9.eE]+)", out)
    if match is None:
        raise AssertionError(f"{key} not in output:\n{out}")
    return float(match.group(1))


class TestSpecParsing:
    def test_families_round_trip(self):
        assert parse_state_spec("number:n=2") == Number(n=2)
        assert parse_state_spec("on:N=3,are=0.1,aim=0.2") == ON(N=3, a=0.1 + 0.2j)
        assert parse_state_spec("cubic:gamma=0.05,P=0,s=1") == CubicPhase(
            gamma=0.05, P=0.0, s=1.0
        )
        assert parse_state_spec("pmod:sign=-1,s=0.5") == PhotonMod(
            sign=-1, s=0.5, theta=0.0
        )

    def test_case_and_whitespace_in_family(self):
        assert parse_state_spec("Number:n=0") == Number(n=0)

    @pytest.mark.parametrize(
        "text",
        [
            "bogus:x=1",
            "number:n=1,n=2",
            "cubic:gamma=0.05,P=0,s=1,zz=3",
            "cubic:gamma=0.05",
            "number:n=abc",
            "number:n",
            "on:N=0x3",
        ],
    )
    def test_rejects_malformed_specs(self, text):
        with pytest.raises(ValueError):
            parse_state_spec(text)


class TestExitCodes:
    def test_bad_family_prints_grammar(self, capsys):
        rc, _, err = run(capsys, ["negativity", "bogus:x=1"])
        assert rc == 2
        assert "spec string grammar" in err

    def test_bad_value_prints_grammar(self, capsys):
        rc, _, err = run(capsys, ["negativity", "number:n=abc"])
        assert rc == 2
        assert "spec string grammar" in err

    @pytest.mark.parametrize(
        "spec",
        [
            "cubic:gamma=0.05,P=0,s=-1",
            "number:n=-1",
            "pmod:sign=2,s=0.5",
            "cubic:gamma=0.05,P=0,s=nan",
            "on:N=1,are=inf",
        ],
    )
    def test_value_rejected_by_record_prints_grammar(self, capsys, spec):
        rc, _, err = run(capsys, ["negativity", spec] + COARSE)
        assert rc == 2
        assert "spec string grammar" in err

    def test_bad_second_spec_writes_no_file(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        rc, _, err = run(
            capsys,
            ["negativity", "number:n=1", "number:n=abc", *COARSE, "--out", str(path)],
        )
        assert rc == 2
        assert "spec string grammar" in err
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv",
        [["negativity", "on:N=1,are=1e200"],
         ["negativity", "cubic:gamma=1e300,P=0,s=0"],
         ["state", "on:N=1,are=1e200", "--out", "{out}"]],
        ids=["negativity-on", "negativity-cubic", "state-on"],
    )
    def test_overflow_names_the_state(self, capsys, tmp_path, argv):
        path = tmp_path / "w.csv"
        argv = [arg.format(out=path) for arg in argv]
        rc, _, err = run(
            capsys, argv + ["--qmax", "8", "--nq", "65", "--pmax", "8", "--np", "65"]
        )
        assert rc == 1
        lines = err.splitlines()
        assert len(lines) == 1
        assert argv[1] in lines[0] and "overflow" in lines[0]
        assert "(34," not in lines[0]
        assert not path.exists()

    def test_bad_transmittance_is_usage_error(self, capsys, tmp_path):
        rc, _, err = run(
            capsys,
            ["distill", "--t", "1.5", "--out", str(tmp_path / "d.csv")] + COARSE,
        )
        assert rc == 2
        assert "error:" in err
        # plain usage errors do not dump the spec grammar
        assert "spec string grammar" not in err

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_bad_s_targ_is_usage_error_before_the_sweep(self, capsys, tmp_path, monkeypatch,
                                                        value):
        def swept(*args, **kwargs):
            raise AssertionError("distill_sweep ran with a bad --s-targ")

        monkeypatch.setattr(cli, "distill_sweep", swept)
        path = tmp_path / "d.csv"
        rc, _, err = run(capsys, ["distill", "--s-targ", value, "--out", str(path)] + COARSE)
        assert rc == 2
        assert err.startswith("error:") and "s_targ" in err
        assert not path.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--nq", "2"], ["--qmax", "-3"], ["--pmax", "nan"]],
    )
    def test_bad_grid_flags_are_usage_errors(self, capsys, flags):
        rc, _, err = run(capsys, ["negativity", "number:n=1"] + COARSE + flags)
        assert rc == 2
        assert "error:" in err
        assert "spec string grammar" not in err

    @pytest.mark.parametrize(
        "argv",
        [["state", "number:n=1", "--out", "x.csv"], ["negativity", "number:n=1"],
         ["distill", "--out", "x.csv"]],
        ids=lambda argv: argv[0],
    )
    def test_tol_flag_is_rejected(self, capsys, argv):
        # the normalization tolerance is TOL_NORM, with no per-call override
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_psuc_and_window_are_exclusive(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                ["distill", "--psuc", "0.1", "--window", "-1", "1",
                 "--out", str(tmp_path / "d.csv")]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv,stage",
        [(["state", "number:n=1"], "resource_wigner"),
         (["negativity", "number:n=1"], "resource_wigner"),
         (["distill"], "distill_sweep")],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_unwritable_out_fails_before_any_field(self, capsys, tmp_path, monkeypatch,
                                                   argv, stage):
        def computed(*args, **kwargs):
            raise AssertionError(f"{stage} ran before --out was checked")

        monkeypatch.setattr(cli, stage, computed)
        for path in (tmp_path / "missing" / "x.csv", tmp_path):
            rc, _, err = run(capsys, argv + COARSE + ["--out", str(path)])
            assert rc == 2
            assert err.startswith("error:") and str(path) in err
            assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_unconverged_quadrature_exits_one(self, capsys):
        # a +-3 window cannot hold the s=1.5 cubic state
        rc, _, err = run(
            capsys,
            ["negativity", "cubic:gamma=0.05,P=0,s=1.5",
             "--qmax", "3", "--nq", "65", "--pmax", "3", "--np", "65"],
        )
        assert rc == 1
        assert "error:" in err


class TestNegativityCommand:
    def test_one_photon_reference_value(self, capsys):
        rc, out, _ = run(capsys, ["negativity", "number:n=1"])
        assert rc == 0
        want = math.log(4.0 / math.sqrt(math.e) - 1.0)
        assert abs(stdout_value(out, "N_L") - want) < 1e-3
        assert stdout_value(out, "mean_photon") == pytest.approx(1.0)

    def test_on_state_value(self, capsys):
        rc, out, _ = run(capsys, ["negativity", "on:N=3,aim=0.2449"])
        assert rc == 0
        assert abs(stdout_value(out, "N_L") - 0.11) < 0.01

    def test_cubic_value(self, capsys, cubic_reference):
        rc, out, _ = run(capsys, ["negativity", "cubic:gamma=0.05,P=0,s=0.6"])
        assert rc == 0
        want = cubic_reference(0.05, 0.0, 0.6)
        assert abs(stdout_value(out, "N_L") - want) < 1e-3


class TestStateCommand:
    def test_one_photon_minimum_at_origin(self, capsys, tmp_path):
        path = tmp_path / "n1.csv"
        rc, out, _ = run(
            capsys,
            ["state", "number:n=1", "--qmax", "8", "--nq", "129",
             "--pmax", "8", "--np", "129", "--out", str(path)],
        )
        assert rc == 0
        assert "integral=" in out
        field = read_field_csv(path)
        # bitwise np.loadtxt's table: coordinate columns, then samples
        mesh = np.meshgrid(*field.grid.axes, indexing="ij")
        table = np.column_stack([m.ravel() for m in mesh] + [field.samples.ravel()])
        ref = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(table.view(np.uint64), ref.view(np.uint64))
        flat = int(np.argmin(field.samples))
        iq, ip = np.unravel_index(flat, field.samples.shape)
        assert abs(field.grid.axes[0][iq]) < 1e-12
        assert abs(field.grid.axes[1][ip]) < 1e-12
        assert abs(field.samples.min() + 1.0 / (2.0 * math.pi)) < 1e-4

    def test_cubic_field_normalized(self, capsys, tmp_path):
        path = tmp_path / "c.csv"
        rc, out, _ = run(
            capsys,
            # the s=1 state keeps visible tail mass out to |p| near 30
            ["state", "cubic:gamma=0.05,P=0,s=1", "--qmax", "12", "--nq", "193",
             "--pmax", "40", "--np", "641", "--out", str(path)],
        )
        assert rc == 0
        assert abs(stdout_value(out, "integral") - 1.0) < 1e-3

    def test_output_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["state", "number:n=1", "--qmax", "8", "--nq", "129",
                "--pmax", "8", "--np", "129"]
        assert main(base + ["--out", str(p1)]) == 0
        assert main(base + ["--out", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()


class TestSweepStates:
    GRID = ["--qmax", "12", "--nq", "385", "--pmax", "12", "--np", "385"]

    def read_rows(self, path):
        lines = path.read_text().splitlines()
        assert lines[0] == "mean_photon,neg"
        return [tuple(map(float, ln.split(","))) for ln in lines[1:]]

    def test_number_family_monotone(self, capsys, tmp_path):
        path = tmp_path / "num.csv"
        rc, out, _ = run(
            capsys,
            ["negativity", *(f"number:n={n}" for n in range(4)),
             *self.GRID, "--out", str(path)],
        )
        assert rc == 0
        assert "rows=4" in out
        rows = self.read_rows(path)
        negs = [neg for _, neg in rows]
        assert negs == sorted(negs)
        assert rows[0] == (0.0, 0.0)

    def test_pmod_family_constant(self, capsys, tmp_path):
        path = tmp_path / "pmod.csv"
        rc, _, _ = run(
            capsys,
            ["negativity", "pmod:sign=1,s=0.2", "pmod:sign=1,s=0.6",
             "pmod:sign=1,s=1.0", *self.GRID, "--out", str(path)],
        )
        assert rc == 0
        negs = [neg for _, neg in self.read_rows(path)]
        # photon subtraction and addition leave the one-photon value intact
        assert all(abs(neg - 0.3544) < 5e-3 for neg in negs)
        assert max(negs) - min(negs) < 1e-3


class TestDistillCommand:
    BASE = ["distill", "--gamma", "0.05", "--s-ini", "0.3", "--t", "0.9"] + COARSE

    def test_unit_target_reports_bound(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        rc, out, _ = run(
            capsys, self.BASE + ["--psuc", "1.0", "--out", str(path)]
        )
        assert rc == 0
        p_suc = stdout_value(out, "P_suc")
        ini = stdout_value(out, "ini_neg")
        post = stdout_value(out, "post_neg")
        assert abs(p_suc - 1.0) < 1e-2
        # averaging over every outcome cannot beat the input negativity
        assert post <= ini * 1.01
        assert p_suc <= stdout_value(out, "rate_bound")
        lines = path.read_text().splitlines()
        assert lines[0] == "p_v,density,neg,fid"
        assert lines[-1].startswith("# P_suc=")
        assert stdout_value(lines[-1], "rate_bound") == pytest.approx(math.exp(ini - post), rel=1e-5)
        # the l1 bound, printed and in the footer
        assert stdout_value(out, "avg_l1") <= math.exp(ini)
        assert stdout_value(lines[-1], "avg_l1") == pytest.approx(stdout_value(out, "avg_l1"), abs=1e-6)

    def test_fidelity_footer_with_target(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        rc, out, _ = run(
            capsys,
            self.BASE + ["--psuc", "0.05", "--s-targ", "4.0", "--out", str(path)],
        )
        assert rc == 0
        assert stdout_value(out, "post_fid") > 0.0
        assert path.read_text().splitlines()[-1].startswith("# avg_fid=")

    def test_window_past_the_samples_reports_the_clipped_window(self, capsys, tmp_path):
        # the default outcomes span [-6, 6], so -100 is clipped to -6
        wide, exact = tmp_path / "wide.csv", tmp_path / "exact.csv"
        rc, out_wide, _ = run(capsys, self.BASE + ["--window", "-100", "0", "--out", str(wide)])
        assert rc == 0
        rc, out_exact, _ = run(capsys, self.BASE + ["--window", "-6", "0", "--out", str(exact)])
        assert rc == 0
        assert "window=[-6.000000,0.000000]" in out_wide
        assert stdout_value(out_wide, "P_suc") == stdout_value(out_exact, "P_suc")
        footer = wide.read_text().splitlines()[-1]
        assert "window=[-6.000000000000e+00,0.000000000000e+00]" in footer
        assert wide.read_bytes() == exact.read_bytes()

    def test_output_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.BASE + ["--psuc", "1.0", "--out", str(p1)]) == 0
        assert main(self.BASE + ["--psuc", "1.0", "--out", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()


class TestValidate:
    def test_every_row_passes(self, capsys):
        rc, out, _ = run(capsys, ["validate"])
        assert rc == 0
        assert [line.split(":")[0] for line in out.splitlines()] == [
            f"[PASS] {name}" for name, _, _ in validation.CHECKS
        ]

    def test_a_failing_row_is_reported_and_the_rest_still_run(self, capsys, monkeypatch):
        rows = list(validation.CHECKS)
        name, bound, _ = rows[0]
        rows[0] = (name, bound, lambda: 2.0 * bound)
        monkeypatch.setattr(validation, "CHECKS", tuple(rows))
        rc, out, _ = run(capsys, ["validate"])
        assert rc == 1
        lines = out.splitlines()
        detail = f"deviation {2.0 * bound:.1e}, bound {bound:.0e}"
        assert lines[0].startswith(f"[FAIL] {name}: {detail} (")
        assert [line.split(":")[0] for line in lines[1:]] == [
            f"[PASS] {other}" for other, _, _ in rows[1:]
        ]

    def test_fast_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--fast"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fast" in capsys.readouterr().err


class TestStudy:
    def test_tiny_table(self, capsys, tmp_path, monkeypatch):
        grid = build_grid(-10, 10, 65, -16, 16, 129)

        def tiny():
            yield "sweep.csv", DistillationConfig(
                input=CubicPhase(0.05, 0.0, 0.3), t=0.9,
                p_v_samples=np.linspace(-3.0, 3.0, 9), target_P_suc=1.0,
                s_targ=4.0, input_grid=grid,
            )
            yield "curve.csv", (grid, [Number(0), Number(1)])

        monkeypatch.setattr(cli, "STUDIES", {"tiny": tiny})
        outdir = tmp_path / "out"
        rc, out, _ = run(capsys, ["study", "tiny", "--outdir", str(outdir)])
        assert rc == 0
        assert sorted(p.name for p in outdir.iterdir()) == ["curve.csv", "sweep.csv"]
        sweep = (outdir / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "p_v,density,neg,fid"
        assert len(sweep) == 1 + 9 + 2
        assert sweep[-2].startswith("# P_suc=")
        assert sweep[-1].startswith("# avg_fid=")
        curve = (outdir / "curve.csv").read_text().splitlines()
        assert curve[0] == "mean_photon,neg"
        assert len(curve) == 3
        assert "window=[-3.000000,3.000000]" in out
        assert stdout_value(out, "fid_ratio") > 0.0
        assert "rows=2" in out

    def test_unusable_outdir_fails_before_any_work(self, capsys, tmp_path, monkeypatch):
        def worked(*args, **kwargs):
            raise AssertionError("the study ran before --outdir was checked")

        monkeypatch.setattr(cli, "_run_sweep", worked)
        monkeypatch.setattr(cli, "_write_curve", worked)
        monkeypatch.setattr(cli, "_state_row", worked)
        existing = tmp_path / "taken"
        existing.write_text("")
        for path in (existing, existing / "sub"):
            rc, out, err = run(capsys, ["study", "bound", "--outdir", str(path)])
            assert rc == 2
            assert err.startswith("error:") and str(path) in err
            assert len(err.splitlines()) == 1 and "Traceback" not in err
            assert out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_unknown_study_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["study", "bogus", "--outdir", str(tmp_path)])
        assert exc.value.code == 2


def test_readme_commands_parse():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```\n(.*?)```", readme.read_text(), flags=re.S)
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("wigsim ")]
    assert len(lines) >= 6
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_lists_every_subcommand():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```\n(.*?)```", readme.read_text(), flags=re.S)
    named = {
        ln.split()[1] for b in blocks for ln in b.splitlines() if ln.startswith("wigsim ")
    }
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert named == set(sub.choices)


def test_readme_grammar_matches_cli():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```\n(.*?)```", readme.read_text(), flags=re.S)
    # the family rules of the grammar, without their two-space indent
    family_rules = cli.GRAMMAR.split("examples:")[0].splitlines()[1:]
    rules = "".join(ln[2:] + "\n" for ln in family_rules)
    assert rules in blocks
