import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bklab import (Disk, LorentzIndex, boundary, cli, load_domain, load_field,
                   lorentz_norm, make_domain, make_grid, recon, save_domain, save_field)
from bklab.boundary import FamilySpec, cauchy_distance
from bklab.errors import BklabError
from bklab.recon import bump_field
from bklab.svgplot import parse_svg_data


def run_cli(args, env_extra=None, cwd=None, timeout=None):
    env = dict(os.environ)
    env.setdefault("BKLAB_THREADS", "1")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "bklab.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=timeout)


def assert_config_error(r):
    """Exit 2 with the one-line JSON error on stderr."""
    assert r.returncode == 2, (r.returncode, r.stderr)
    assert "error" in json.loads(r.stderr)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    g = make_grid(1.2, 64)
    d = make_domain(g, Disk(0j, 1.0))
    q = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.5))
    save_field(ws / "q.bkfld", q, g)
    save_field(ws / "q2.bkfld", q + d.restrict(bump_field(g, -0.15 + 0.2j, 0.35, 0.2)), g)
    # strong enough that the fixed point diverges at every lattice point for tau <= 2
    save_field(ws / "qdiv.bkfld", d.restrict(bump_field(g, 0.1j, 0.4, 40.0)), g)
    save_domain(ws / "disk.json", d)
    save_field(ws / "zero.bkfld", np.zeros((64, 64), dtype=complex), g)
    parity = (-1.0) ** np.add.outer(np.arange(64), np.arange(64))
    save_field(ws / "checker.bkfld", 1e3 * parity.astype(complex), g)
    qnan = q.copy()
    qnan[32, 32] = np.nan  # a cell inside the disk
    save_field(ws / "qnan.bkfld", qnan, g)
    gg = make_grid(4.0, 128)
    save_field(ws / "gauss.bkfld", np.exp(-np.abs(gg.Z) ** 2), gg)
    doc = json.loads((ws / "disk.json").read_text())
    for name, section, key, value in (("bad_L", "grid", "L", "abc"),
                                      ("bad_N", "grid", "N", 64.5),
                                      ("bad_radius", "shape", "radius", "1.0"),
                                      ("bad_version", None, "version", True),
                                      ("huge_N", "grid", "N", 2 ** 20),
                                      ("typo_grid", "grid", "typo", 3),
                                      ("typo_shape", "shape", "radiuss", 5)):
        bad = json.loads(json.dumps(doc))
        (bad[section] if section else bad)[key] = value
        (ws / f"{name}.json").write_text(json.dumps(bad))
    bad = json.loads(json.dumps(doc))
    del bad["shape"]["center"]
    (ws / "no_center.json").write_text(json.dumps(bad))
    (ws / "latin1.json").write_bytes(json.dumps(doc).encode()[:-1] + b', "r\xe9": 1}')
    (ws / "notjson.json").write_text("domain: disk\n")
    for name, header in (("ff_header", b"\xffBKFLD1 64 1.2"), ("xy_header", b"BKFLD1 x y"),
                         ("exp_header", b"BKFLD1 1e1 1.2")):
        (ws / f"{name}.bkfld").write_bytes(header + b"\n" + bytes(16 * 64 * 64))
    return ws


class TestBasics:
    def test_unknown_subcommand_exit_2(self):
        assert_config_error(run_cli(["frobnicate"]))

    def test_import_leaves_unused_scipy_modules_unloaded(self):
        # the FFTs run on numpy.fft, and each scipy module is imported where
        # it is used (Dirichlet factorization, quadrature, the boundary node
        # tree, Halton samples), so importing the CLI loads no scipy at all
        code = ("import sys, bklab.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           timeout=120)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    def test_sweep_and_reconstruct_runs_load_no_scipy(self, workspace, tmp_path):
        runs = [["carleman-sweep", "--domain", str(workspace / "disk.json"), "--a", "one",
                 "--tau", "4:16", "--out-dir", str(tmp_path / "carl")],
                ["reconstruct", "--q", str(workspace / "q.bkfld"),
                 "--domain", str(workspace / "disk.json"), "--tau", "8,16",
                 "--out-dir", str(tmp_path / "rec")]]
        code = ("import contextlib, io, json, sys; from bklab.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
                "print(codes, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        r = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                           capture_output=True, text=True, timeout=120,
                           env={**os.environ, "BKLAB_THREADS": "1"})
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[0, 0] []"

    def test_missing_file_error_json(self, workspace):
        r = run_cli(["lorentz-norm", "--field", str(workspace / "nope.bkfld"),
                     "--p", "2", "--q", "1"])
        assert r.returncode == 2
        err = json.loads(r.stderr)
        assert "error" in err

    def test_lorentz_norm_digits(self, workspace):
        r = run_cli(["lorentz-norm", "--field", str(workspace / "q.bkfld"),
                     "--p", "2", "--q", "1", "--domain", str(workspace / "disk.json")])
        assert r.returncode == 0, r.stderr
        val = r.stdout.strip()
        assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 11
        float(val)

    def test_lorentz_norm_inf_and_bessel(self, workspace):
        r = run_cli(["lorentz-norm", "--field", str(workspace / "q.bkfld"),
                     "--p", "2", "--q", "inf", "--s", "0.25"])
        assert r.returncode == 0, r.stderr
        float(r.stdout.strip())

    def test_lorentz_norm_huge_integer_q_keeps_exit_contract(self, workspace):
        # an integer q past the closed form's term count takes the quadrature;
        # a binomial expansion there overflows math.comb and raises
        r = run_cli(["lorentz-norm", "--field", str(workspace / "q.bkfld"),
                     "--p", "2", "--q", "1e308"], timeout=60)
        assert r.returncode in (0, 2), r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("field, s", [("q", "400"), ("q", "1e308"),
                                          ("checker", "148")])
    def test_lorentz_norm_overflowing_bessel_exit_2(self, workspace, field, s):
        # 400 and 1e308 overflow the multiplier on the N=64 grid; at 148 the
        # multiplier is finite but its product with a rough field is not
        r = run_cli(["lorentz-norm", "--field", str(workspace / f"{field}.bkfld"),
                     "--p", "2", "--q", "1", "--s", s], timeout=60)
        assert_config_error(r)
        assert f"s={float(s)}" in json.loads(r.stderr)["error"]["message"]

    def test_lorentz_norm_large_q_exit_0(self, tmp_path):
        # the q-th power sum is e^-529, summed in logs
        g = make_grid(1.2, 64)
        save_field(tmp_path / "gauss.bkfld", np.exp(-np.abs(g.Z) ** 2 / 0.3), g)
        r = run_cli(["lorentz-norm", "--field", str(tmp_path / "gauss.bkfld"),
                     "--p", "2", "--q", "1100"], timeout=60)
        assert r.returncode == 0, r.stderr
        assert r.stdout.startswith("0.618")

    @pytest.mark.parametrize("p", ["1e300", "1e308"])
    def test_lorentz_norm_large_p_exit_0(self, workspace, p):
        # t^{q/p} integrates in closed form however small q/p is, and the
        # tail constant p / (q (p - 1)) is taken in logs
        r = run_cli(["lorentz-norm", "--field", str(workspace / "q.bkfld"),
                     "--p", p, "--q", "2"], timeout=60)
        assert r.returncode == 0, r.stderr
        assert r.stderr == ""
        field, g = load_field(workspace / "q.bkfld")
        val = lorentz_norm(field, LorentzIndex(float(p), 2.0), grid=g)
        assert r.stdout == f"{val:.12g}\n"

    def test_lorentz_norm_out_of_range_norm_exit_2(self, tmp_path):
        # a norm beyond the largest double
        g = make_grid(1.2, 64)
        save_field(tmp_path / "huge.bkfld", np.full((64, 64), 1.5e308), g)
        assert_config_error(run_cli(
            ["lorentz-norm", "--field", str(tmp_path / "huge.bkfld"), "--p", "2",
             "--q", "1100"], timeout=60))

    def test_lorentz_norm_weak_out_of_range_exit_2(self, tmp_path):
        # the weak (2, inf) norm of a constant 1e308 is 2.4e308, and it is
        # rejected without a numpy overflow warning on stderr
        g = make_grid(1.2, 64)
        save_field(tmp_path / "huge.bkfld", np.full((64, 64), 1e308), g)
        r = run_cli(["lorentz-norm", "--field", str(tmp_path / "huge.bkfld"), "--p", "2",
                     "--q", "inf"], timeout=60)
        assert_config_error(r)
        assert "Warning" not in r.stderr


class TestInputErrors:
    @pytest.mark.parametrize("cmd", [
        ["carleman-sweep", "--tau", "0:4"],
        ["carleman-sweep", "--tau", "4:2"],
        ["carleman-sweep", "--tau", "1:inf"],
        ["carleman-sweep", "--z0", "0.1"],
        ["reconstruct", "--q", "{ws}/q.bkfld", "--tau", "4:2"],
        ["bukhgeim", "--q", "{ws}/q.bkfld", "--tau", "8", "--z0", "0.1"],
        ["cauchy-distance", "--q1", "{ws}/q.bkfld", "--q2", "{ws}/q2.bkfld",
         "--taus", "4,8,16", "--z0-grid", "3"],
        ["reconstruct", "--q", "{ws}/q.bkfld", "--tau", "8", "--lattice", "0"],
        ["reconstruct", "--q", "{ws}/q.bkfld", "--tau", "8", "--lattice", "-3"],
        ["reconstruct", "--q", "{ws}/q.bkfld", "--tau", "8", "--lattice", "100000"],
        ["bukhgeim", "--q", "{ws}/q.bkfld", "--tau", "8", "--z0", "5,5"],
        ["carleman-sweep", "--z0", "5,5"],
        ["bukhgeim", "--q", "{ws}/qnan.bkfld", "--tau", "8", "--z0", "0.1,0.05"],
        ["carleman-sweep", "--domain", "{ws}/bad_L.json"],
        ["carleman-sweep", "--domain", "{ws}/bad_N.json"],
        ["carleman-sweep", "--domain", "{ws}/bad_radius.json"],
        ["carleman-sweep", "--domain", "{ws}/bad_version.json"],
        ["carleman-sweep", "--domain", "{ws}/huge_N.json"],
        ["carleman-sweep", "--domain", "{ws}/latin1.json"],
        ["stability", "--config", "{ws}/latin1.json"],
        ["stationary-phase", "--field", "{ws}"],
        ["carleman-sweep", "--out-dir", "{ws}/q.bkfld"],
        ["bukhgeim", "--q", "{ws}/ff_header.bkfld", "--tau", "8", "--z0", "0.1,0.05"],
        ["bukhgeim", "--q", "{ws}/xy_header.bkfld", "--tau", "8", "--z0", "0.1,0.05"],
        ["bukhgeim", "--q", "{ws}/exp_header.bkfld", "--tau", "8", "--z0", "0.1,0.05"],
        ["bukhgeim", "--q", "{ws}/q.bkfld", "--tau", "8", "--z0", "0.1,0.05", "--tol", "nan"],
        ["stationary-phase", "--field", "{ws}/gauss.bkfld", "--s", "nan"],
        ["stationary-phase", "--field", "{ws}/gauss.bkfld", "--norm", "nan"],
        ["cauchy-distance", "--q1", "{ws}/q.bkfld", "--q2", "{ws}/q2.bkfld",
         "--taus", "4,8,16", "--fd-modes", "-3"],
        ["stationary-phase", "--field", "{ws}/gauss.bkfld", "--norm", "-1"],
        ["stationary-phase", "--field", "{ws}/gauss.bkfld", "--norm", "0"],
        ["carleman-sweep", "--domain", "{ws}/typo_grid.json"],
        ["carleman-sweep", "--domain", "{ws}/typo_shape.json"],
        *(["cauchy-distance", "--q1", "{ws}/q.bkfld", "--q2", "{ws}/q2.bkfld",
           "--taus", "4,8,16", "--fd-modes", "2", "--z0-grid", size]
          for size in ("0x3", "2x3", "3x2")),
    ])
    def test_malformed_arguments_exit_2(self, workspace, tmp_path, cmd):
        args = [a.replace("{ws}", str(workspace)) for a in cmd]
        if cmd[0] not in ("stationary-phase", "stability") and "--domain" not in args:
            args += ["--domain", str(workspace / "disk.json")]
        if "--out-dir" not in args:
            args += ["--out-dir", str(tmp_path)]
        r = run_cli(args, timeout=60)
        assert_config_error(r)
        assert not list(tmp_path.glob("*.csv"))
        if "--z0-grid" in args:  # every other argument is valid
            size = args[args.index("--z0-grid") + 1]
            assert f"'{size}'" in json.loads(r.stderr)["error"]["message"]

    @pytest.mark.parametrize("cmd", [
        ["cauchy-selftest", "--n", "3"],
        ["stationary-phase", "--field", "{ws}/zero.bkfld"],
        ["carleman-sweep", "--domain", "{ws}/disk.json", "--tau", "0.25,1"],
        ["bukhgeim", "--q", "{ws}/qdiv.bkfld", "--domain", "{ws}/disk.json", "--tau", "1",
         "--z0", "0.1,0.05"],
        ["cauchy-distance", "--q1", "{ws}/q.bkfld", "--q2", "{ws}/q2.bkfld",
         "--domain", "{ws}/disk.json", "--z0-grid", "2x3"],
        ["reconstruct", "--q", "{ws}/qdiv.bkfld", "--domain", "{ws}/disk.json",
         "--tau", "1,2"],
        ["stability", "--config", "{ws}/notjson.json"],
    ], ids=lambda cmd: cmd[0])
    def test_failed_run_creates_no_out_dir(self, workspace, tmp_path, cmd):
        # the output directory is made only once the run has succeeded
        out = tmp_path / "new" / "sub"
        args = [a.replace("{ws}", str(workspace)) for a in cmd]
        r = run_cli([*args, "--out-dir", str(out)], timeout=120)
        assert r.returncode in (2, 3), (r.returncode, r.stderr)
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0])
        assert r.stdout == ""
        assert not (tmp_path / "new").exists()

    def test_unequal_z0_grid_is_named(self, workspace, tmp_path):
        r = run_cli(["cauchy-distance", "--q1", str(workspace / "q.bkfld"),
                     "--q2", str(workspace / "q2.bkfld"), "--domain",
                     str(workspace / "disk.json"), "--taus", "4,8,16", "--z0-grid", "2x3",
                     "--out-dir", str(tmp_path)], timeout=60)
        assert_config_error(r)
        assert "'2x3'" in json.loads(r.stderr)["error"]["message"]

    @pytest.mark.parametrize("cmd", [
        ["carleman-sweep", "--domain", "{ws}/latin1.json", "--out-dir", "{tmp}"],
        ["carleman-sweep", "--domain", "{ws}/notjson.json", "--out-dir", "{tmp}"],
        ["stability", "--config", "{ws}/latin1.json", "--out-dir", "{tmp}"],
        ["stability", "--config", "{ws}/notjson.json", "--out-dir", "{tmp}"],
        ["lorentz-norm", "--field", "{ws}/ff_header.bkfld", "--p", "2", "--q", "1"],
    ])
    def test_undecodable_file_is_named(self, workspace, tmp_path, cmd):
        args = [a.replace("{ws}", str(workspace)).replace("{tmp}", str(tmp_path))
                for a in cmd]
        r = run_cli(args, timeout=60)
        assert_config_error(r)
        assert args[2] in json.loads(r.stderr)["error"]["message"]

    def test_missing_domain_key_is_named(self, workspace, tmp_path):
        path = str(workspace / "no_center.json")
        r = run_cli(["carleman-sweep", "--domain", path, "--out-dir", str(tmp_path)],
                    timeout=60)
        assert_config_error(r)
        message = json.loads(r.stderr)["error"]["message"]
        assert path in message and "'center'" in message

    def test_lorentz_norm_malformed_q_exit_2(self, workspace):
        assert_config_error(run_cli(
            ["lorentz-norm", "--field", str(workspace / "q.bkfld"), "--p", "2",
             "--q", "abc"], timeout=60))

    def test_field_grid_must_match_domain(self, workspace, tmp_path):
        g = make_grid(1.5, 64)
        for name in ("q1", "q2"):
            save_field(tmp_path / f"{name}.bkfld",
                       bump_field(g, 0.1j, 0.4, 0.5 if name == "q1" else 0.6), g)
        domain = str(workspace / "disk.json")
        assert_config_error(run_cli(
            ["cauchy-distance", "--q1", str(tmp_path / "q1.bkfld"),
             "--q2", str(tmp_path / "q2.bkfld"), "--domain", domain,
             "--out-dir", str(tmp_path)], timeout=120))
        assert not (tmp_path / "cauchy_distance.json").exists()
        assert_config_error(run_cli(
            ["lorentz-norm", "--field", str(tmp_path / "q1.bkfld"), "--p", "2",
             "--q", "1", "--domain", domain], timeout=60))


class TestSweeps:
    def test_carleman_csv_and_svg(self, workspace, tmp_path):
        out = tmp_path / "carl"
        r = run_cli(["carleman-sweep", "--domain", str(workspace / "disk.json"),
                     "--a", "one", "--tau", "4:16", "--out-dir", str(out)])
        assert r.returncode == 0, r.stderr
        lines = (out / "carleman_sweep.csv").read_text().splitlines()
        assert lines[0] == "tau,norm_l2weak,norm_sup,bound"
        assert len(lines) == 4  # taus 4, 8, 16
        svg = (out / "carleman_sweep.svg").read_text()
        data = parse_svg_data(svg)
        csv_weak = [float(l.split(",")[1]) for l in lines[1:]]
        assert [xy[1] for xy in data["norm_l2weak"]] == csv_weak

    def test_stationary_phase(self, workspace, tmp_path):
        out = tmp_path / "stat"
        r = run_cli(["stationary-phase", "--field", str(workspace / "gauss.bkfld"),
                     "--s", "1.0", "--tau-min", "4", "--tau-max", "64",
                     "--out-dir", str(out)])
        assert r.returncode == 0, r.stderr
        lines = (out / "stationary_phase.csv").read_text().splitlines()
        assert lines[0] == "tau,error,bound"
        for ln in lines[1:]:
            tau, err, bound = (float(v) for v in ln.split(","))
            assert err <= bound

    @pytest.mark.parametrize("tau_max", ["4", "7"])
    def test_stationary_phase_one_tau(self, workspace, tmp_path, tau_max):
        r = run_cli(["stationary-phase", "--field", str(workspace / "q.bkfld"),
                     "--tau-min", "4", "--tau-max", tau_max, "--out-dir", str(tmp_path)])
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "insufficient tau samples for a slope fit"
        lines = (tmp_path / "stationary_phase.csv").read_text().splitlines()
        data = parse_svg_data((tmp_path / "stationary_phase.svg").read_text())
        assert len(lines) == 2
        assert data["error"] == [(4.0, float(lines[1].split(",")[1]))]

    @pytest.mark.parametrize("cmd", [
        ["stationary-phase", "--field", "{ws}/zero.bkfld"],
        ["carleman-sweep", "--domain", "{ws}/disk.json", "--a", "{ws}/zero.bkfld",
         "--tau", "4:16"],
        ["reconstruct", "--q", "{ws}/zero.bkfld", "--domain", "{ws}/disk.json",
         "--tau", "4,8"],
    ])
    def test_non_positive_sweep_samples_exit_2(self, workspace, tmp_path, cmd):
        args = [a.replace("{ws}", str(workspace)) for a in cmd]
        assert_config_error(run_cli(args + ["--out-dir", str(tmp_path)], timeout=120))

    @pytest.mark.parametrize("cmd", [
        ["stationary-phase", "--field", "{ws}/zero.bkfld"],
        ["carleman-sweep", "--domain", "{ws}/disk.json", "--a", "{ws}/zero.bkfld",
         "--tau", "4:16"],
        ["reconstruct", "--q", "{ws}/zero.bkfld", "--domain", "{ws}/disk.json",
         "--tau", "4,8"],
        ["carleman-sweep", "--domain", "{ws}/disk.json", "--a", "{ws}/zero.bkfld",
         "--tau", "4"],
    ], ids=["stationary-phase", "carleman-sweep", "reconstruct", "carleman-one-tau"])
    def test_failed_sweep_writes_nothing(self, workspace, tmp_path, cmd):
        # the slope fit and the plot are made before the first file is
        # written; with one tau there is no fit, and the plot rejects the zeros
        args = [a.replace("{ws}", str(workspace)) for a in cmd]
        r = run_cli(args + ["--out-dir", str(tmp_path)], timeout=120)
        assert_config_error(r)
        assert r.stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("taus, stdout", [
        ("4", ["insufficient tau samples for a slope fit"]),
        ("4,32", ["insufficient tau samples for a slope fit",
                  "skipped tau=32: aliasing guard"]),
    ], ids=["one-tau", "one-tau-and-one-above-guard"])
    def test_carleman_one_tau(self, workspace, tmp_path, monkeypatch, capsys,
                              taus, stdout):
        # the guard on the N=64, L=1.2 grid is pi 64 / (8 1.2^2) = 17.5
        monkeypatch.setenv("BKLAB_THREADS", "1")
        assert cli.main(["carleman-sweep", "--domain", str(workspace / "disk.json"),
                         "--a", "one", "--tau", taus, "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == stdout
        lines = (tmp_path / "carleman_sweep.csv").read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines] == ["tau", "4.0"]

    @pytest.mark.parametrize("taus", ["1000", "1000,2000"])
    def test_carleman_every_tau_above_guard(self, workspace, tmp_path, taus):
        # the error names the guard, not the empty plot, and no file is written
        r = run_cli(["carleman-sweep", "--domain", str(workspace / "disk.json"),
                     "--a", "one", "--tau", taus, "--out-dir", str(tmp_path)])
        assert_config_error(r)
        guard = make_grid(1.2, 64).aliasing_guard()
        assert json.loads(r.stderr)["error"]["message"] == \
            f"no tau at or below the aliasing guard {guard:.6g}"
        assert r.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_carleman_repeated_tau(self, workspace, tmp_path):
        # the sweep sorts its taus: the error names the repeated one, not
        # their order
        r = run_cli(["carleman-sweep", "--domain", str(workspace / "disk.json"),
                     "--a", "one", "--tau", "8,4,8", "--out-dir", str(tmp_path)])
        assert_config_error(r)
        assert json.loads(r.stderr)["error"]["message"] == "tau sample 8 is given more than once"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("taus", ["0.36787944117144233,1,2", "0.25,0.5,1"],
                             ids=["one-over-e", "below-one-over-e"])
    def test_carleman_tau_where_bound_shape_is_not_positive(self, workspace, tmp_path,
                                                             taus):
        # the bound's shape tau^-1 (1 + ln tau) is 0 at 1/e and negative
        # below it: such a tau is rejected before any transform
        r = run_cli(["carleman-sweep", "--domain", str(workspace / "disk.json"),
                     "--a", "one", "--tau", taus, "--out-dir", str(tmp_path)])
        assert_config_error(r)
        message = json.loads(r.stderr)["error"]["message"]
        assert message.startswith(f"tau {taus.split(',')[0]} ")
        assert "tau^-1 (1 + ln tau)" in message
        assert r.stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option, value, point", [
        ("--norm", "1.7e308", "inf at x = 1.0"),
        ("--s", "1e308", "0.0 at x = 2.0"),
    ], ids=["bound-overflows", "bound-underflows"])
    def test_stationary_phase_bound_off_the_log_axis(self, workspace, tmp_path,
                                                       option, value, point):
        # the plot names the bound it cannot place, and nothing is written
        r = run_cli(["stationary-phase", "--field", str(workspace / "q.bkfld"),
                     "--tau-min", "1", "--tau-max", "4", option, value,
                     "--out-dir", str(tmp_path)])
        assert_config_error(r)
        assert json.loads(r.stderr)["error"]["message"].endswith(f"'bound' is {point}")
        assert r.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_cauchy_selftest(self, tmp_path):
        r = run_cli(["cauchy-selftest", "--n", "64", "--out-dir", str(tmp_path)])
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "cauchy_selftest.csv").exists()


class TestSolvers:
    def test_bukhgeim_outputs(self, workspace, tmp_path):
        out = tmp_path / "bk"
        r = run_cli(["bukhgeim", "--q", str(workspace / "q.bkfld"),
                     "--domain", str(workspace / "disk.json"),
                     "--tau", "8", "--z0", "0.1,0.05", "--out-dir", str(out)])
        assert r.returncode == 0, r.stderr
        assert (out / "f.bkfld").exists() and (out / "u.bkfld").exists()
        diag = json.loads((out / "bukhgeim.json").read_text())
        assert diag["converged"] and diag["defect"] < 1e-8

    def test_bukhgeim_divergence_exit_3(self, workspace, tmp_path):
        g = make_grid(1.2, 64)
        d = make_domain(g, Disk(0j, 1.0))
        save_field(tmp_path / "qbig.bkfld",
                   d.restrict(bump_field(g, 0j, 0.6, 600.0)), g)
        r = run_cli(["bukhgeim", "--q", str(tmp_path / "qbig.bkfld"),
                     "--domain", str(workspace / "disk.json"),
                     "--tau", "1.5", "--z0", "0.1,0.05", "--out-dir", str(tmp_path)])
        assert r.returncode == 3
        err = json.loads(r.stderr)
        assert "error" in err

    def test_reconstruct_every_point_diverges_exit_3(self, workspace, tmp_path):
        # a lattice on which no fixed point converges is a numerical failure
        out = tmp_path / "rec"
        r = run_cli(["reconstruct", "--q", str(workspace / "qdiv.bkfld"),
                     "--domain", str(workspace / "disk.json"), "--tau", "1,2",
                     "--out-dir", str(out)])
        assert r.returncode == 3, r.stderr
        lines = r.stderr.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "FixedPointDivergenceError"
        assert "tau=1.0" in error["message"]
        assert r.stdout == ""
        assert not out.exists()

    def test_cauchy_distance_json(self, workspace, tmp_path):
        r = run_cli(["cauchy-distance", "--q1", str(workspace / "q.bkfld"),
                     "--q2", str(workspace / "q2.bkfld"),
                     "--domain", str(workspace / "disk.json"),
                     "--z0-grid", "3x3", "--taus", "4,8,16", "--fd-modes", "2",
                     "--out-dir", str(tmp_path)])
        assert r.returncode == 0, r.stderr
        doc = json.loads((tmp_path / "cauchy_distance.json").read_text())
        assert doc["d_hat"] > 0
        assert len(doc["pairs"]) >= 27

    def test_cauchy_distance_skipped_z0_is_point(self, tmp_path, monkeypatch, capsys):
        # a large q2 makes some solves diverge: their records carry z0 as
        # [x, y], like those of the pairs
        monkeypatch.setenv("BKLAB_THREADS", "1")
        g = make_grid(1.2, 32)
        d = make_domain(g, Disk(0j, 1.0))
        q1 = d.restrict(bump_field(g, 0.2 + 0.1j, 0.45, 0.5))
        q2 = d.restrict(bump_field(g, -0.1 + 0.2j, 0.35, 40.0))
        save_domain(tmp_path / "disk.json", d)
        save_field(tmp_path / "q1.bkfld", q1, g)
        save_field(tmp_path / "q2.bkfld", q2, g)
        assert cli.main(["cauchy-distance", "--q1", str(tmp_path / "q1.bkfld"),
                         "--q2", str(tmp_path / "q2.bkfld"),
                         "--domain", str(tmp_path / "disk.json"), "--z0-grid", "3x3",
                         "--taus", "2,4,8", "--fd-modes", "1",
                         "--out-dir", str(tmp_path / "out")]) == 0
        rep = cauchy_distance(q1, q2, d, FamilySpec(
            tuple(recon.make_z0_lattice(d, 3)), (2.0, 4.0, 8.0), fd_modes=1))
        assert rep.skipped
        assert f"({len(rep.skipped)} skipped)" in capsys.readouterr().out
        doc = json.loads((tmp_path / "out" / "cauchy_distance.json").read_text())
        assert doc["skipped"] == [
            {"z0": [r["z0"].real, r["z0"].imag], "tau": r["tau"], "reason": r["reason"]}
            for r in rep.skipped]
        assert all(len(r["z0"]) == 2 for r in doc["pairs"] if r["kind"] == "oscillating")

    def test_reconstruct_outputs(self, workspace, tmp_path):
        out = tmp_path / "rec"
        r = run_cli(["reconstruct", "--q", str(workspace / "q.bkfld"),
                     "--domain", str(workspace / "disk.json"),
                     "--tau", "8,16", "--form", "both", "--out-dir", str(out)])
        assert r.returncode == 0, r.stderr
        assert (out / "recon_interior.bkfld").exists()
        assert (out / "recon_boundary.bkfld").exists()
        metrics = json.loads((out / "recon_metrics.json").read_text())
        assert set(metrics["errors"]) == {"interior", "boundary"}

    @pytest.mark.parametrize("cmd, tau", [
        (["reconstruct", "--q", "q.bkfld", "--tau", "8,8,4"], 8),
        (["cauchy-distance", "--q1", "q.bkfld", "--q2", "q2.bkfld", "--z0-grid", "3x3",
          "--taus", "4,4,16", "--fd-modes", "1"], 4),
    ], ids=["reconstruct", "cauchy-distance"])
    def test_repeated_tau_exit_2(self, workspace, tmp_path, cmd, tau):
        # every tau list follows carleman-sweep's rule: a tau given twice is
        # named before any solve, and nothing is written
        cmd = [str(workspace / a) if a.endswith(".bkfld") else a for a in cmd]
        r = run_cli([*cmd, "--domain", str(workspace / "disk.json"),
                     "--out-dir", str(tmp_path)])
        assert_config_error(r)
        assert json.loads(r.stderr)["error"]["message"] == \
            f"tau sample {tau} is given more than once"
        assert list(tmp_path.iterdir()) == []

    def test_reconstruct_sorts_taus(self, workspace, tmp_path, monkeypatch):
        # the sweep's rows are in ascending tau, and the field files are
        # those of the largest tau
        monkeypatch.setenv("BKLAB_THREADS", "1")
        args = ["reconstruct", "--q", str(workspace / "q.bkfld"),
                "--domain", str(workspace / "disk.json")]
        assert cli.main([*args, "--tau", "16,8", "--out-dir", str(tmp_path / "sweep")]) == 0
        assert cli.main([*args, "--tau", "16", "--out-dir", str(tmp_path / "top")]) == 0
        lines = (tmp_path / "sweep" / "recon_sweep.csv").read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines] == ["tau", "8.0", "16.0"]
        assert ((tmp_path / "sweep" / "recon_interior.bkfld").read_bytes()
                == (tmp_path / "top" / "recon_interior.bkfld").read_bytes())

    def test_both_forms_share_one_solve(self, workspace, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.setenv("BKLAB_THREADS", "1")
        solves = []
        solve_f = recon.solve_f

        def counting(q, params, *args, **kwargs):
            solves.append(params)
            return solve_f(q, params, *args, **kwargs)
        monkeypatch.setattr(recon, "solve_f", counting)
        args = ["reconstruct", "--q", str(workspace / "q.bkfld"),
                "--domain", str(workspace / "disk.json"), "--tau", "8,16"]
        assert cli.main([*args, "--form", "both", "--out-dir", str(tmp_path / "both")]) == 0
        lattice = recon.make_z0_lattice(load_domain(workspace / "disk.json"), 3)
        assert len(solves) == len(set(solves)) == 2 * lattice.size

        def columns(path):
            header, *rows = (ln.split(",") for ln in path.read_text().splitlines())
            return {name: [r[i] for r in rows] for i, name in enumerate(header)}
        both = columns(tmp_path / "both" / "recon_sweep.csv")
        for form in ("interior", "boundary"):
            out = tmp_path / form
            assert cli.main([*args, "--form", form, "--out-dir", str(out)]) == 0
            col = f"sup_err_{form}"
            assert columns(out / "recon_sweep.csv")[col] == both[col]
            assert ((out / f"recon_{form}.bkfld").read_bytes()
                    == (tmp_path / "both" / f"recon_{form}.bkfld").read_bytes())


class TestStabilityCli:
    def _config(self, path):
        cfg = {
            "version": 1,
            "domain": {"L": 1.2, "N": 64,
                       "shape": {"type": "disk", "center": [0, 0], "radius": 1.0}},
            "s": 0.25,
            "lattice_n": 3,
            "family_taus": [4.0, 8.0, 16.0],
            "fd_modes": 2,
            "pairs": [
                {"q1": {"type": "bump", "center": [0.2, 0.1], "width": 0.45,
                        "amplitude": 0.5},
                 "q2": {"type": "bump", "center": [0.2, 0.1], "width": 0.45,
                        "amplitude": amp}}
                for amp in (0.9, 0.7, 0.6)
            ],
        }
        path.write_text(json.dumps(cfg))
        return path

    def test_runs_and_writes_csv(self, tmp_path):
        cfg = self._config(tmp_path / "cfg.json")
        r = run_cli(["stability", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "stability.csv").read_text().splitlines()
        assert lines[0].startswith("pair,dq_weak,d_hat,bound_value,tau")
        assert len(lines) == 4

    def test_field_spec_matches_bump_spec(self, tmp_path, monkeypatch):
        # the bench's form: a pair given as field files gives the CSV of the
        # same pair given inline as bumps
        monkeypatch.setenv("BKLAB_THREADS", "1")
        cfg = json.loads(self._config(tmp_path / "bump.json").read_text())
        cfg["pairs"] = cfg["pairs"][:1]
        (tmp_path / "bump.json").write_text(json.dumps(cfg))
        g = make_grid(1.2, 64)
        d = make_domain(g, Disk(0j, 1.0))
        for key, spec in cfg["pairs"][0].items():
            field = d.restrict(bump_field(g, complex(*spec["center"]), spec["width"],
                                          complex(spec["amplitude"])))
            save_field(tmp_path / f"{key}.bkfld", field, g)
            cfg["pairs"][0][key] = {"type": "field", "path": str(tmp_path / f"{key}.bkfld")}
        (tmp_path / "field.json").write_text(json.dumps(cfg))
        for name in ("bump", "field"):
            assert cli.main(["stability", "--config", str(tmp_path / f"{name}.json"),
                             "--out-dir", str(tmp_path / name)]) == 0
        csv = [(tmp_path / name / "stability.csv").read_bytes() for name in ("bump", "field")]
        assert csv[0] == csv[1] and len(csv[0].splitlines()) == 2

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = json.loads(self._config(tmp_path / "c.json").read_text())
        cfg["surprise"] = True
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        r = run_cli(["stability", "--config", str(p), "--out-dir", str(tmp_path)])
        assert r.returncode == 2


    @pytest.mark.parametrize("path, value", [
        (("domain", "L"), "abc"), (("lattice_n",), "3"), (("fd_modes",), 2.5),
        (("pairs", 0, "q1", "center"), 0.2), (("version",), True), (("fd_modes",), -3),
        (("b_omega",), 0), (("b_omega",), -1), (("domain", "typo"), 3),
        (("domain", "shape", "radiuss"), 5), (("pairs", 0, "typo"), 1),
        (("pairs", 0, "q1", "widht"), 0.4), (("s",), 0), (("s",), -1),
        (("tau_min",), 0), (("tau_min",), -1), (("tau_min",), 50),
        (("family_taus",), [4.0, 4.0, 16.0]),
    ], ids=["domain.L", "lattice_n", "fd_modes", "bump-center", "version",
            "negative-fd_modes", "zero-b_omega", "negative-b_omega", "domain-unknown-key",
            "shape-unknown-key", "pair-unknown-key", "spec-unknown-key", "zero-s",
            "negative-s", "zero-tau_min", "negative-tau_min", "tau_min-above-clamp",
            "repeated-family-tau"])
    def test_wrong_typed_config_value_exit_2(self, tmp_path, path, value):
        cfg = json.loads(self._config(tmp_path / "c.json").read_text())
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert_config_error(run_cli(
            ["stability", "--config", str(p), "--out-dir", str(tmp_path)], timeout=120))
        assert not (tmp_path / "stability.csv").exists()

    @pytest.mark.parametrize("width", [-0.4, 0])
    def test_non_positive_bump_width_exit_2(self, tmp_path, width):
        cfg = json.loads(self._config(tmp_path / "c.json").read_text())
        cfg["pairs"][0]["q1"]["width"] = width
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        r = run_cli(["stability", "--config", str(p), "--out-dir", str(tmp_path / "out")])
        assert_config_error(r)
        assert "pairs[0].q1.width" in json.loads(r.stderr)["error"]["message"]
        assert not (tmp_path / "out").exists()

    def test_tiny_bump_width_is_silent(self, tmp_path):
        # exp(-(r / 1e-320)^2) underflows to exact zeros, with no numpy
        # warning on stderr
        cfg = json.loads(self._config(tmp_path / "c.json").read_text())
        cfg["pairs"] = cfg["pairs"][:1]
        cfg["pairs"][0]["q1"]["width"] = 1e-320
        p = tmp_path / "tiny.json"
        p.write_text(json.dumps(cfg))
        r = run_cli(["stability", "--config", str(p), "--out-dir", str(tmp_path / "out")],
                    timeout=120)
        assert r.returncode == 0, r.stderr
        assert r.stderr == ""
        assert (tmp_path / "out" / "stability.csv").exists()

    @pytest.mark.parametrize("path", [
        ("version",), ("domain", "shape", "center"), ("pairs", 0, "q2"),
        ("pairs", 0, "q1", "width"),
    ], ids=["version", "shape-center", "pair-q2", "bump-width"])
    def test_missing_config_key_is_named(self, tmp_path, path):
        cfg = json.loads(self._config(tmp_path / "c.json").read_text())
        node = cfg
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        r = run_cli(["stability", "--config", str(p), "--out-dir", str(tmp_path)],
                    timeout=120)
        assert_config_error(r)
        message = json.loads(r.stderr)["error"]["message"]
        assert str(p) in message and repr(path[-1]) in message


class TestRejectedBeforeAnySolve:
    """A tau above the aliasing guard, or an fd_modes above the domain's
    boundary cut points, exits 2 when it is read: no fixed point is solved,
    no Dirichlet lift is factored and nothing is written."""

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a solve was started")
        monkeypatch.setattr(recon, "solve_f", refuse)
        monkeypatch.setattr(boundary, "solve_f", refuse)
        monkeypatch.setattr(boundary, "DirichletSolver", refuse)
        monkeypatch.setenv("BKLAB_THREADS", "1")

    @staticmethod
    def message(capsys, tmp_path, args):
        assert cli.main([*args, "--out-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        return json.loads(capsys.readouterr().err)["error"]["message"]

    @staticmethod
    def args(workspace, tmp_path, cmd, **config):
        if cmd == "stability":
            cfg = json.loads(TestStabilityCli()._config(tmp_path / "c.json").read_text())
            (tmp_path / "c.json").write_text(json.dumps({**cfg, **config}))
            return ["stability", "--config", str(tmp_path / "c.json")]
        args = ["--domain", str(workspace / "disk.json")]
        if cmd == "reconstruct":
            return ["reconstruct", "--q", str(workspace / "q.bkfld"), *args,
                    "--tau", ",".join(map(str, config["family_taus"]))]
        return ["cauchy-distance", "--q1", str(workspace / "q.bkfld"),
                "--q2", str(workspace / "q2.bkfld"), *args,
                "--taus", ",".join(map(str, config.get("family_taus", (4, 8, 16)))),
                "--fd-modes", str(config.get("fd_modes", 1))]

    @pytest.mark.parametrize("cmd", ["reconstruct", "cauchy-distance", "stability"])
    def test_tau_above_guard(self, workspace, tmp_path, capsys, cmd):
        # the guard on the N=64, L=1.2 grid is 17.45: 8 and 16 would solve
        message = self.message(capsys, tmp_path,
                               self.args(workspace, tmp_path, cmd, family_taus=[8, 16, 100]))
        assert message.startswith("tau=100.0 is not in (0, 17.4533], the aliasing guard")

    @pytest.mark.parametrize("cmd", ["cauchy-distance", "stability"])
    def test_fd_modes_above_cut_points(self, workspace, tmp_path, capsys, cmd):
        cuts = load_domain(workspace / "disk.json").laplacian[2].size
        message = self.message(capsys, tmp_path,
                               self.args(workspace, tmp_path, cmd, fd_modes=cuts + 1))
        assert message == (f"fd_modes must be at most {cuts}, the domain's boundary "
                           f"cut points, got {cuts + 1}")

    def test_fd_modes_at_cut_points_accepted(self, workspace):
        d = load_domain(workspace / "disk.json")
        cuts = d.laplacian[2].size
        lattice = tuple(recon.make_z0_lattice(d, 3))
        FamilySpec(lattice, (4.0, 8.0, 16.0), fd_modes=cuts).check_for(d)
        with pytest.raises(BklabError, match="^fd_modes must be at most"):
            FamilySpec(lattice, (4.0, 8.0, 16.0), fd_modes=cuts + 1).check_for(d)


class TestDeterminism:
    def test_threads_do_not_change_csv(self, workspace, tmp_path):
        outs = {}
        for nt in ("1", "8"):
            out = tmp_path / f"t{nt}"
            r = run_cli(["carleman-sweep", "--domain", str(workspace / "disk.json"),
                         "--a", "one", "--tau", "4:16", "--out-dir", str(out)],
                        env_extra={"BKLAB_THREADS": nt})
            assert r.returncode == 0, r.stderr
            outs[nt] = (out / "carleman_sweep.csv").read_bytes()
        assert outs["1"] == outs["8"]

    def test_repeat_runs_identical(self, workspace, tmp_path):
        blobs = []
        for i in range(2):
            out = tmp_path / f"r{i}"
            r = run_cli(["reconstruct", "--q", str(workspace / "q.bkfld"),
                         "--domain", str(workspace / "disk.json"),
                         "--tau", "4,8", "--form", "interior",
                         "--out-dir", str(out)])
            assert r.returncode == 0, r.stderr
            blobs.append((out / "recon_sweep.csv").read_bytes())
        assert blobs[0] == blobs[1]
