"""Command-line surface: outputs, provenance, presets, exit codes."""

import argparse
import hashlib
import json
import math
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from altpd.chain import build_matrix_direct, stationary
from altpd.cli import _MAX_GRID, RunConfig, _build_parser, main
from altpd.dynamics import win_loss_exchange
from altpd.strategy import Strategy, random_strategy


INTEGRATE = ["integrate", "--p", "0.62,0.35,0.3,0.45"]
# A config file that sets n = two.
BAD_VALUE_CONFIG = str(Path(__file__).with_name("data") / "n_two.cfg")


def run_cli(args, capsys):
    """Invoke main() in-process; argparse failures surface as SystemExit."""
    try:
        code = main(args)
    except SystemExit as stop:
        code = stop.code
    out, err = capsys.readouterr()
    return code, out, err


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    provenance = json.loads(lines[0][2:])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return provenance, header, rows


class TestMatrix:
    def test_mutual_cooperation_payoff(self, capsys):
        code, out, _ = run_cli(
            ["matrix", "--n", "1", "--p", "allc", "--q", "allc",
             "--b", "1", "--c", "0.3"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["payoff_determinant"] == pytest.approx(0.7, abs=1e-12)
        assert doc["payoff_stationary"] == pytest.approx(0.7, abs=1e-12)
        assert doc["config"]["command"] == "matrix"
        # Mutual cooperation funnels every state into CC, so the chain is
        # reducible but still has a unique stationary distribution.
        assert doc["irreducible"] is False
        assert doc["stationary"] == [1.0, 0.0, 0.0, 0.0]

    def test_memory_two_payoff_methods_agree(self, capsys):
        code, out, _ = run_cli(
            ["matrix", "--n", "2", "--p", "random:7", "--q", "random:8"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["payoff_determinant"] - doc["payoff_stationary"]) < 1e-9
        assert len(doc["matrix"]) == 16
        assert len(doc["state_labels"]) == 16

    def test_absorbing_pair_notes_reducibility(self, capsys):
        code, out, _ = run_cli(
            ["matrix", "--n", "1", "--p", "1,1,1,1", "--q", "0,0,0,0"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["irreducible"] is False
        assert "reducible" in doc["note"]
        assert sum(doc["stationary"]) == pytest.approx(1.0, abs=1e-12)

    def test_csv_output(self, capsys, tmp_path):
        out_file = tmp_path / "matrix.csv"
        code, _, _ = run_cli(
            ["matrix", "--n", "1", "--p", "tft", "--q", "random:3",
             "--format", "csv", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        provenance, header, rows = read_csv(out_file)
        assert header == ["state", "label", "stationary", "to_0", "to_1", "to_2", "to_3"]
        assert len(rows) == 4
        assert provenance["p"] == "tft"
        assert "results" in provenance
        for row in rows:
            assert sum(float(v) for v in row[3:]) == pytest.approx(1.0, abs=1e-12)

    def test_tft_preset_expands(self, capsys):
        # tft against itself locks into two absorbing loops, so pair it
        # with a mixed opponent to keep the stationary vector unique.
        code, out, _ = run_cli(
            ["matrix", "--n", "1", "--p", "tft", "--q", "random:3"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["p"] == [1.0, 0.0, 1.0, 0.0]

    def test_tft_against_itself_is_degenerate(self, capsys):
        code, _, err = run_cli(
            ["matrix", "--n", "1", "--p", "tft", "--q", "tft"], capsys
        )
        assert code == 2
        assert "degeneracy" in err

    def test_seventeen_digit_round_trip(self, capsys):
        # Printed floats reparse to the exact doubles the library computed.
        code, out, _ = run_cli(
            ["matrix", "--n", "1", "--p", "random:7", "--q", "random:8"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        p = Strategy(np.array(doc["p"]))
        q = Strategy(np.array(doc["q"]))
        nu = stationary(build_matrix_direct(p, q))
        assert doc["stationary"] == list(nu)

    # sha256 of `altpd matrix` stdout as recorded while CSV cells were still
    # formatted through repr(float(x)); the memory-3 CSV cells are numpy
    # float64 values. In the signed-zero output a -0.0 probability prints
    # row 0 as [0.0, 0.0, 0.4, 0.6], not [-0.0, -0.0, 0.4, 0.6].
    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ["--n", "1", "--p", "random:7", "--q", "random:8"],
                "4a0469ce9ba161ff23348d345ed2317b33b411b5ea34ad2fbb2ecf1adb1b8785",
            ),
            (
                ["--n", "3", "--p", "random:1", "--q", "random:2", "--format", "csv"],
                "d8d248e6441c5e7c200e94e0097a78a69000b3e9f646d6176f5a44589a62abd1",
            ),
            (
                ["--p=-0.0,0.5,0.5,0.5", "--q", "0.3,0.4,0.5,0.6"],
                "5ae907e05976ee452ec2bf07a27954daeca107b1e36bea94fe45327d6d00954c",
            ),
        ],
        ids=["json-memory-one", "csv-memory-three", "json-signed-zero"],
    )
    def test_output_bytes_are_unchanged(self, capsys, args, digest):
        code, out, _ = run_cli(["matrix", *args], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_random_preset_is_deterministic(self, capsys):
        args = ["matrix", "--n", "1", "--p", "random:11", "--q", "random:12"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        expect = random_strategy(1, np.random.default_rng(11))
        assert json.loads(out1)["p"] == list(expect.probs)


class TestIntegrate:
    def test_plane_start_stays_put(self, capsys, tmp_path):
        out_file = tmp_path / "traj.csv"
        code, out, _ = run_cli(
            ["integrate", "--p", "0.71,0.5,0.41,0.2", "--t", "1",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["status"] == "completed"
        assert summary["max_drift_f1"] < 1e-8
        assert summary["max_drift_f2"] < 1e-8
        start = np.array([0.71, 0.5, 0.41, 0.2])
        assert np.max(np.abs(np.array(summary["final_state"]) - start)) < 1e-7

    def test_long_run_conserves_invariants(self, capsys, tmp_path):
        out_file = tmp_path / "traj.csv"
        code, out, _ = run_cli(
            ["integrate", "--p", "0.62,0.37,0.51,0.24", "--t", "100",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["max_drift_f1"] < 1e-8
        assert summary["max_drift_f2"] < 1e-8
        provenance, header, rows = read_csv(out_file)
        assert header == ["t", "p1", "p2", "p3", "p4", "F1", "F2"]
        assert provenance["t"] == 100.0
        f1 = np.array([float(r[5]) for r in rows])
        assert np.max(np.abs(f1 - f1[0])) < 1e-8

    def test_stdout_csv_with_summary_trailer(self, capsys):
        code, out, _ = run_cli(
            ["integrate", "--p", "0.5,0.5,0.5,0.5", "--t", "0.01"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "t,p1,p2,p3,p4,F1,F2"
        assert lines[-1].startswith("# summary ")
        summary = json.loads(lines[-1][len("# summary "):])
        assert summary["steps"] == 10
        t0, t1 = float(lines[2].split(",")[0]), float(lines[3].split(",")[0])
        assert t1 - t0 == pytest.approx(1e-3, abs=1e-15)

    def test_mirror_runs_retrace_each_other(self, capsys, tmp_path):
        # Forward from x0, then forward from the exchange image of the
        # endpoint: the second path is the mirrored reversal of the first.
        first = tmp_path / "fwd.csv"
        code, out, _ = run_cli(
            ["integrate", "--p", "0.6,0.45,0.35,0.3", "--t", "3",
             "--out", str(first)],
            capsys,
        )
        assert code == 0
        end = json.loads(out)["final_state"]
        mirrored = win_loss_exchange(np.array(end))
        second = tmp_path / "back.csv"
        code, out, _ = run_cli(
            ["integrate", "--p", ",".join(map(str, mirrored)), "--t", "3",
             "--out", str(second)],
            capsys,
        )
        assert code == 0
        _, _, rows_f = read_csv(first)
        _, _, rows_b = read_csv(second)
        fwd = np.array([[float(v) for v in r[1:5]] for r in rows_f])
        back = np.array([[float(v) for v in r[1:5]] for r in rows_b])
        assert fwd.shape == back.shape
        assert np.max(np.abs(back - win_loss_exchange(fwd[::-1]))) < 1e-6

    def test_json_format_writes_trajectory(self, capsys, tmp_path):
        out_file = tmp_path / "traj.json"
        code, out, _ = run_cli(
            ["integrate", "--p", "0.5,0.5,0.5,0.5", "--t", "0.01",
             "--format", "json", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert len(doc["trajectory"]) == 11
        assert doc["trajectory"][0]["p1"] == 0.5
        assert json.loads(out)["steps"] == 10

    def test_memory_two_states_integrate(self, capsys):
        code, out, _ = run_cli(
            ["integrate", "--n", "2", "--p", "random:5", "--t", "0.01"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split(",") == ["t"] + [f"x{i}" for i in range(1, 17)]
        summary = json.loads(lines[-1][len("# summary "):])
        assert summary["max_drift_f1"] is None


    # sha256 of `altpd integrate --method rk45` output as recorded when rk45
    # ran on scipy's solve_ivp (x86-64, numpy 2.4, scipy 1.17): the
    # in-package stepper must write the same bytes.
    @pytest.mark.parametrize(
        "args, digests",
        [
            (
                ["--p", "0.71,0.5,0.41,0.2", "--t", "10", "--out", "traj.csv"],
                {
                    "stdout": "92dd965aba852beb7037f05001117f5d01c892102f567fdda5c3923902a8a9d4",
                    "traj.csv": "9d969934a192cf5ef8058caa70c27b1740fc0bab1100186a5dae917aa2491dc3",
                },
            ),
            (
                ["--p", "0.71,0.5,0.41,0.2", "--t", "10", "--format", "json"],
                {"stdout": "d7560663b12c89139cf4ca38fbfcbed82555f9aeb83bf629e913f2304c6cdefb"},
            ),
            (
                ["--p", "0.62,0.35,0.3,0.45", "--t", "10", "--format", "json"],
                {"stdout": "e440050cb433383a5c169f8828d52f6695606524e660b80802eaf61a54c17e4d"},
            ),
            (
                ["--n", "2", "--p", "random:2", "--t", "0.5"],
                {"stdout": "8342189ff1dbead46e9638442dc9ac86ae2829ace2616d094eecef9414f2bde5"},
            ),
        ],
        ids=["csv-file", "json", "json-boundary", "memory-two"],
    )
    def test_rk45_output_bytes_are_unchanged(
        self, capsys, tmp_path, monkeypatch, args, digests
    ):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["integrate", "--method", "rk45", *args], capsys)
        assert code == 0
        written = {"stdout": out.encode()}
        for name in digests.keys() - {"stdout"}:
            written[name] = (tmp_path / name).read_bytes()
        assert {k: hashlib.sha256(v).hexdigest() for k, v in written.items()} == digests


    # sha256 of `altpd integrate` rk4 output. The README-point CSV digests
    # were recorded before the RK4 stages were written out on named floats,
    # the JSON file digests while the document was still built as one
    # string by json.dumps.
    RK4_DIGESTS = [
        (
            ["--p", "0.71,0.5,0.41,0.2", "--t", "10", "--out", "run.csv"],
            {
                "stdout": "1039535b88e0fcd10a31e5bf26d07f3b98e19ee32c1a7d061d2f32a729482792",
                "run.csv": "af985622950dc75c7ad6a5f7dd87492e3d2da4301d1643da783a0b9d59789708",
            },
        ),
        (
            ["--p", "0.62,0.37,0.51,0.24", "--t", "10", "--format", "json",
             "--out", "traj.json"],
            {
                "stdout": "11b9abb69ee9a6a84f95d341f972dc27dae111382dd483b4dc9258db0b673937",
                "traj.json": "3a8b3b5ca883b13b3ca099894e36c59ce25877b69f7f386c471a5fe5a1575551",
            },
        ),
    ]

    def test_rk4_output_bytes_are_unchanged(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for args, digests in self.RK4_DIGESTS:
            code, out, _ = run_cli(["integrate", *args], capsys)
            assert code == 0
            written = {"stdout": out.encode()}
            for name in digests.keys() - {"stdout"}:
                written[name] = (tmp_path / name).read_bytes()
            digest = {k: hashlib.sha256(v).hexdigest() for k, v in written.items()}
            assert digest == digests, args

    def test_json_file_is_written_without_holding_the_document(self, capsys, tmp_path):
        # Built as one string, the document peaked at about 10.5x the file's
        # size under tracemalloc (rows, their copy, the encoder's chunk list
        # and the joined text); streamed, at about 4x.
        out_file = tmp_path / "traj.json"
        argv = ["integrate", "--p", "0.62,0.37,0.51,0.24", "--t", "1",
                "--format", "json", "--out", str(out_file)]
        tracemalloc.start()
        try:
            code, _, _ = run_cli(argv, capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 6 * out_file.stat().st_size

    def test_long_json_trajectory_is_encoded_from_the_table(self, capsys, tmp_path):
        # 10,001 rows, a 2.25 MB file. With one dict per row and _plain's
        # copy of them the tracemalloc peak was 3.8x the file's size; with
        # the rows formatted from the trajectory's columns 4096 at a time it
        # is 1.2x, set by the integration itself, not by the writer.
        out_file = tmp_path / "traj.json"
        argv = ["integrate", "--p", "0.62,0.37,0.51,0.24", "--t", "10",
                "--format", "json", "--out", str(out_file)]
        tracemalloc.start()
        try:
            code, _, _ = run_cli(argv, capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * out_file.stat().st_size


class TestTorus:
    # sha256 of `altpd torus` output as recorded when the contour was walked
    # one cell at a time and the angles stepped on the generic tuple RK4.
    # The levels-below-one fig_equilibria.json digest was re-recorded when
    # jacobian's complex step moved to Python complex numbers, which moves
    # its eigenvalues by roundoff (near-zero pair ~1e-16), and again when
    # torus_equilibria took phi from the interior plane: phi moved by one
    # ulp, x1 and x3 by ~5e-16 and the eigenvalues by at most 6e-15. The
    # classifications are unchanged.
    @pytest.mark.parametrize(
        "args, digests",
        [
            (
                ["--c", "0.31", "--c1", "0.355", "--c2", "0.314"],
                {
                    "fig_field.csv": "1d7ae04a8e513801187b3ca25f71041638431a8a1e88359dbe43685a44b244aa",
                    "fig_contour.csv": "67462d876650eebf5f6c6a0c75bee67fe0efb158dd845f948c63556607d613dd",
                    "fig_equilibria.json": "dd3c0e4db8878f37d3a98514798fc7b81a7701d0aba4a39cd77e5f694e0c8c65",
                },
            ),
            (
                ["--c", "0.4", "--c1", "1.16422", "--c2", "1.158"],
                {
                    "fig_field.csv": "e331610011e1f7ba61fbcbd0a3de6abfc339abe4ab238cc0ee10ba8891c2a6bb",
                    "fig_contour.csv": "afe8d4db83b5a86d322e31aa63886a657c5f2ec152fe7ebabb12f4571ce2d0c7",
                    "fig_equilibria.json": "e57c8300b84de2a01aaccbf9b82cdf60ea6046ddaa5466d949064d45c8a526ce",
                },
            ),
        ],
        ids=["levels-below-one", "levels-above-one"],
    )
    def test_output_bytes_are_unchanged(
        self, capsys, tmp_path, monkeypatch, args, digests
    ):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["torus", *args, "--out", "fig"], capsys)
        assert code == 0
        written = {"stdout": out.encode()}
        for name in digests:
            written[name] = (tmp_path / name).read_bytes()
        assert {k: hashlib.sha256(v).hexdigest() for k, v in written.items()} == {
            "stdout": "4eb66ef2a9f7e71ca98acb1c9788906d9a7b92a6bbbb16cb0da2f8550c4b0533",
            **digests,
        }

    @pytest.mark.parametrize(
        "c,c1,c2", [("0.31", "0.355", "0.314"), ("0.4", "1.16422", "1.158")]
    )
    def test_figure_data_sets_complete(self, capsys, tmp_path, c, c1, c2):
        prefix = tmp_path / "panel"
        started = time.monotonic()
        code, out, _ = run_cli(
            ["torus", "--c", c, "--c1", c1, "--c2", c2, "--out", str(prefix)],
            capsys,
        )
        elapsed = time.monotonic() - started
        assert code == 0
        assert elapsed < 10.0
        provenance, header, rows = read_csv(tmp_path / "panel_field.csv")
        assert header == ["phi", "psi", "phi_dot", "psi_dot"]
        assert len(rows) == 40 * 40
        assert provenance["c1"] == float(c1)
        _, header, corners = read_csv(tmp_path / "panel_rectangle.csv")
        assert header == ["phi", "psi"]
        assert len(corners) == 5
        assert corners[0] == corners[-1]
        _, header, segs = read_csv(tmp_path / "panel_contour.csv")
        assert header == ["phi1", "psi1", "phi2", "psi2"]
        assert len(segs) > 0
        doc = json.loads((tmp_path / "panel_equilibria.json").read_text())
        assert len(doc["equilibria"]) <= 4
        entry = doc["equilibria"][0]
        assert set(entry) == {"phi", "psi", "x", "classification", "eigenvalues"}
        assert len(entry["eigenvalues"]) == 4
        assert "panel_field.csv" in out

    def test_field_grid_masks_degenerate_samples(self, capsys, tmp_path):
        prefix = tmp_path / "panel"
        code, _, _ = run_cli(
            ["torus", "--c", "0.4", "--c1", "1.16422", "--c2", "1.158",
             "--grid", "20", "--out", str(prefix)],
            capsys,
        )
        assert code == 0
        _, _, rows = read_csv(tmp_path / "panel_field.csv")
        finite = [r for r in rows if r[2] != "nan"]
        assert 0 < len(finite) <= len(rows)
        assert all(math.isfinite(float(r[2])) for r in finite)

    def test_field_csv_is_written_without_a_table_copy(self, capsys, tmp_path):
        # field_grid's four arrays hold 4 * 400^2 * 8 B. With one stacked
        # copy of them before writing, the tracemalloc peak was 2.67x that;
        # with the rows stacked 4096 at a time it is 1.67x.
        import altpd.torus  # noqa: F401  (loaded before tracing)

        argv = ["torus", "--grid", "400", "--out", str(tmp_path / "fig")]
        tracemalloc.start()
        try:
            code, _, _ = run_cli(argv, capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2.2 * 4 * 400**2 * 8

    def test_benefit_only_rescales_the_output(self, capsys, tmp_path):
        # 0.6 / 2 is 0.3 in floats and doubling is exact, so the field at
        # b = 2 is exactly twice the field at b = 1, NaN where it is NaN;
        # the rectangle, the contour and the equilibria do not move, and
        # the eigenvalues double, bit for bit.
        level = ["--c1", "0.355", "--c2", "0.314"]
        for b, c in (("1", "0.3"), ("2", "0.6")):
            argv = ["torus", "--b", b, "--c", c, *level, "--out", str(tmp_path / b)]
            assert run_cli(argv, capsys)[0] == 0

        def rows(b, name):
            return read_csv(tmp_path / f"{b}_{name}.csv")[2]

        unit = np.array(rows("1", "field"), dtype=float)
        double = np.array(rows("2", "field"), dtype=float)
        assert np.array_equal(double[:, :2], unit[:, :2])
        assert np.array_equal(double[:, 2:], 2.0 * unit[:, 2:], equal_nan=True)
        assert np.isnan(unit).any()
        for name in ("rectangle", "contour"):
            assert rows("2", name) == rows("1", name)
        (unit_eq,), (double_eq,) = (
            json.loads((tmp_path / f"{b}_equilibria.json").read_text())["equilibria"]
            for b in ("1", "2")
        )
        for key in ("phi", "psi", "x", "classification"):
            assert double_eq[key] == unit_eq[key]
        assert double_eq["eigenvalues"] == [
            {k: 2.0 * v for k, v in ev.items()} for ev in unit_eq["eigenvalues"]
        ]


class TestVerify:
    def test_default_suite_passes(self, capsys):
        code, out, err = run_cli(["verify"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) >= 7
        assert all(line.startswith("PASS") for line in lines)
        assert any("oracle" in line for line in lines)
        assert any("commuting" in line or "torus" in line for line in lines)
        assert err == ""

    # sha256 of `altpd verify` stdout. The memory-1 digests were
    # re-recorded when the details of the memory-1 field checks began to
    # name their horizons and steps in units of 1/b; no measured value
    # moved. The memory-3 digests (no memory-1 field checks) were recorded
    # before the exact payoff vector and the reversal gap were each
    # written once.
    @pytest.mark.parametrize(
        "args, code, digest",
        [
            ([], 0, "b46221ce68b7f9b99a9c1f4ec8e8bd7006d72a698897e23d37f0132d64632ca3"),
            (["--n", "1"], 0, "b46221ce68b7f9b99a9c1f4ec8e8bd7006d72a698897e23d37f0132d64632ca3"),
            (["--seed", "11"], 0, "ef8c095be39eb83fa26630895cc2368fd0f2ad50cb8dc559d7997afb8d58fe9f"),
            (["--n", "3", "--seed", "5"], 0, "7a0cf7742f1e290acb0fd699e239340295489ee88e67d71a3445eefc0fe9f389"),
        ],
        ids=["default", "memory-one", "seed-11", "memory-three-seed-5"],
    )
    def test_output_bytes_are_unchanged(self, capsys, args, code, digest):
        exit_code, out, _ = run_cli(["verify", *args], capsys)
        assert exit_code == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("seed", ["26", "27", "38", "39"])
    def test_torus_check_passes_where_every_cube_orbit_halts(self, capsys, seed):
        # At these seeds every cube orbit leaves the cube before T = 5, so
        # the torus check compares each start up to its cube orbit's halt.
        _, out, _ = run_cli(["verify", "--seed", seed], capsys)
        torus = [line for line in out.splitlines() if "torus commuting diagram" in line]
        assert len(torus) == 1 and torus[0].startswith("PASS torus commuting diagram")

    @pytest.mark.parametrize(
        "b, c",
        [
            ("2", "0.6"), ("1e3", "300"), ("1e4", "3000"), ("1e8", "3e7"), ("1e-6", "3e-7"),
            ("1e300", "3e299"), ("1e-300", "3e-301"),
        ],
    )
    def test_every_check_passes_on_the_benefits_clock(self, capsys, b, c):
        # b only rescales time and payoffs, so the suite's horizons and
        # steps are in units of 1/b and its payoff deviations in units of b.
        # The oracle's squared deviations are formed in units of b: on the
        # payoffs themselves they overflowed at b = 1e300 and underflowed
        # to a zero standard error at b = 1e-300.
        code, out, err = run_cli(["verify", "--b", b, "--c", c], capsys)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 9 and all(line.startswith("PASS") for line in lines)

    def test_details_name_the_benefits_clock(self, capsys):
        _, out, _ = run_cli(["verify", "--b", "1000", "--c", "300"], capsys)
        assert "(T=20/b, rk4 dt=1e-3/b)" in out
        assert "(T=5/b)" in out

    def test_memory_three_extends_construction_checks(self, capsys):
        code, out, _ = run_cli(["verify", "--n", "3"], capsys)
        assert code == 0
        construction = [
            line for line in out.splitlines() if "construction" in line
        ]
        assert construction and "3" in construction[0]


class TestConfigAndErrors:
    def test_config_file_merges_and_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = 0.4\nn 1\nb\t2.0\nseed = 5  # trailing comment\n")
        code, out, _ = run_cli(
            ["matrix", "--config", str(cfg), "--c", "0.45",
             "--p", "allc", "--q", "allc"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["b"] == 2.0
        assert doc["config"]["c"] == 0.45
        assert doc["config"]["seed"] == 5
        assert doc["payoff_determinant"] == pytest.approx(1.55, abs=1e-12)

    # A config-file value and an overriding flag value for every option.
    OPTION_VALUES = {
        "b": (2.0, 3.0),
        "c": (0.4, 0.45),
        "n": (2, 3),
        "t": (5.0, 7.0),
        "dt": (0.01, 0.02),
        "method": ("rk45", "rk4"),
        "seed": (5, 6),
        "c1": (0.25, 0.75),
        "c2": (0.25, 0.75),
        "grid": (10, 20),
        "p": ("random:1", "random:2"),
        "q": ("random:3", "random:4"),
    }

    @pytest.mark.parametrize(
        "option",
        [f.name for f in fields(RunConfig) if f.name not in ("command", "format", "out")],
    )
    def test_every_option_is_read_from_file_and_flag(self, capsys, tmp_path, option):
        from_file, from_flag = self.OPTION_VALUES[option]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option} = {from_file}\n")
        argv = ["matrix", "--config", str(cfg)]
        for flag, preset in (("p", "allc"), ("q", "alld")):
            if flag != option:
                argv += [f"--{flag}", preset]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        assert json.loads(out)["config"][option] == from_file
        code, out, err = run_cli(argv + [f"--{option}", str(from_flag)], capsys)
        assert code == 0, err
        assert json.loads(out)["config"][option] == from_flag

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("benefit = 2\n")
        code, _, err = run_cli(
            ["matrix", "--config", str(cfg), "--p", "allc", "--q", "allc"],
            capsys,
        )
        assert code == 64
        assert "benefit" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["matrix", "--n", "1", "--p", "allc", "--q", "allc", "--c", "1.5"],
            ["matrix", "--n", "5", "--p", "allc", "--q", "allc"],
            ["matrix", "--n", "1", "--p", "0.5,0.5", "--q", "allc"],
            ["matrix", "--n", "1", "--p", "allc", "--q", "allc",
             "--method", "euler"],
            ["matrix", "--n", "1", "--p", "allc", "--q", "allc",
             "--format", "yaml"],
            ["integrate", "--t", "1"],
            ["integrate", "--p", "1,0,1,0", "--t", "1"],
            ["torus", "--b", "2", "--c", "2.5"],
            ["torus", "--c1", "2.5"],
            ["matrix", "--no-such-flag"],
            ["matrix", "--p", "allc", "--q", "allc", "--rounds", "5"],
            ["verify", "--corrupt-payoff"],
            # {missing} is a directory that does not exist under tmp_path.
            ["matrix", "--p", "allc", "--q", "allc", "--out", "{missing}/m.json"],
            [*INTEGRATE, "--t", "0.1", "--out", "{missing}/r.csv"],
            ["torus", "--out", "{missing}/fig"],
            ["matrix", "--n", "1", "--p", ",".join(["0.5"] * 16), "--q", "allc"],
            ["matrix", "--n", "1", "--p", "a,b,c,d", "--q", "allc"],
            # A directory is no readable config file.
            ["matrix", "--config", ".", "--p", "allc", "--q", "allc"],
            ["matrix", "--config", BAD_VALUE_CONFIG, "--p", "allc", "--q", "allc"],
            # No command, an unknown one, and flags with no command.
            [],
            ["bogus"],
            ["--p", "allc", "--q", "allc"],
        ],
    )
    def test_usage_errors_exit_64(self, capsys, tmp_path, args):
        missing = str(tmp_path / "missing")
        code, _, err = run_cli([a.replace("{missing}", missing) for a in args], capsys)
        assert code == 64
        assert err
        assert "Traceback" not in err
        if any("{missing}" in a for a in args):
            assert err.startswith(f"error: cannot write {missing}/")

    def test_no_option_is_hidden_from_help(self, capsys):
        # Every option a user can pass, and every command, shows in
        # `altpd --help`; a fault a test needs goes in by monkeypatching,
        # not by a suppressed flag.
        hidden = [a.dest for a in _build_parser()._actions if a.help == argparse.SUPPRESS]
        assert hidden == []
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0
        for name in ("matrix", "integrate", "torus", "verify"):
            assert f"{name}:" in out
        flags = [f.name for f in fields(RunConfig) if f.name != "command"] + ["config"]
        for name in flags:
            assert f"--{name} " in out

    def test_a_flag_may_precede_the_command(self, capsys):
        after = run_cli(["matrix", "--p", "allc", "--q", "alld", "--b", "2"], capsys)
        before = run_cli(["--p", "allc", "--b", "2", "matrix", "--q", "alld"], capsys)
        assert after[0] == 0
        assert before == after

    @pytest.mark.parametrize(
        "p",
        ["nan,0.5,0.5,0.5", "random:", "random:abc", "random:1.5", "random:-1"],
    )
    def test_nan_strategy_is_named_usage_error(self, capsys, p):
        code, _, err = run_cli(["matrix", "--p", p, "--q", "allc"], capsys)
        assert code == 64
        assert "--p" in err and "strategy" in err
        assert "SVD" not in err

    # Every subcommand applies the step rule, even those that never step.
    @pytest.mark.parametrize(
        "flags",
        [[*INTEGRATE, "--dt", "inf"], [*INTEGRATE, "--dt", "nan"],
         [*INTEGRATE, "--t", "inf"], [*INTEGRATE, "--t", "nan"],
         [*INTEGRATE, "--dt=-1e-3"], [*INTEGRATE, "--dt", "0"],
         [*INTEGRATE, "--t", "1e300", "--dt", "1e-10"],
         ["torus", "--t", "1e300", "--dt", "1e-10"],
         ["matrix", "--p", "allc", "--q", "allc", "--t", "1e300", "--dt", "1e-10"]],
    )
    def test_non_finite_times_exit_64(self, capsys, tmp_path, monkeypatch, flags):
        monkeypatch.chdir(tmp_path)  # a torus run that got through writes here
        code, _, err = run_cli(flags, capsys)
        assert code == 64
        assert "t and dt" in err
        assert "Traceback" not in err

    # Validation refuses these before any work is done, so the grid one
    # past the largest allowed allocates nothing and writes no file.
    @pytest.mark.parametrize(
        "args, flag",
        [(["verify", "--seed", "-1"], "--seed"),
         (["torus", "--grid", str(_MAX_GRID + 1)], "--grid"),
         (["torus", "--grid", "1"], "--grid")],
    )
    def test_out_of_range_seed_and_grid_exit_64(self, capsys, tmp_path, monkeypatch, args, flag):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(args, capsys)
        assert code == 64
        assert err.startswith(f"error: {flag} must")
        assert list(tmp_path.iterdir()) == []

    def test_import_leaves_scipy_integrate_unloaded(self):
        probe = "import sys, altpd.cli; print('scipy.integrate' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_no_subcommand_loads_scipy(self, tmp_path):
        # scipy is a test-only dependency: importing the package, every
        # subcommand and rk45 at memory 1 and 2 must run without it.
        probe = f"""
import contextlib, io, sys
import numpy as np
import altpd, altpd.cli
from altpd.dynamics import integrate
from altpd.strategy import PayoffParams
params = PayoffParams(b=1.0, c=0.3)
integrate(np.array([0.62, 0.35, 0.3, 0.45]), params, 3.0, method="rk45")
integrate(np.full(16, 0.4), params, 0.5, method="rk45")
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["matrix", "--p", "allc", "--q", "tft"],
        ["integrate", "--p", "0.71,0.5,0.41,0.2", "--t", "1"],
        ["integrate", "--p", "0.71,0.5,0.41,0.2", "--t", "10", "--method", "rk45"],
        ["integrate", "--n", "2", "--p", "random:2", "--t", "0.5", "--method", "rk45"],
        ["torus", "--grid", "4", "--out", {str(tmp_path / "torus")!r}],
        ["verify"],
    ):
        assert altpd.cli.main(argv) == 0, argv
print("scipy" in sys.modules)
"""
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    # Each process loads only the code it runs: `import altpd` loads no
    # module, and each subcommand only the modules its own work needs.
    _LOADED_PROBE = """
import contextlib, io, sys
import altpd
if sys.argv[1:]:
    import altpd.cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert altpd.cli.main(sys.argv[1:]) == 0, sys.argv[1:]
print(" ".join(m for m in sys.modules if m.startswith("altpd.")))
"""

    def _loaded_modules(self, argv):
        result = subprocess.run(
            [sys.executable, "-c", self._LOADED_PROBE, *argv],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        return {name.removeprefix("altpd.") for name in result.stdout.split()}

    def test_import_loads_no_module(self):
        assert self._loaded_modules([]) == set()

    @pytest.mark.parametrize(
        "argv, unloaded",
        [
            (["matrix", "--p", "allc", "--q", "tft"],
             {"dynamics", "torus", "oracle", "symmetry", "verify"}),
            (["integrate", "--p", "0.71,0.5,0.41,0.2", "--t", "1"],
             {"torus", "oracle", "symmetry", "verify"}),
            (["torus", "--grid", "4"], {"oracle", "symmetry", "verify"}),
        ],
        ids=["matrix", "integrate", "torus"],
    )
    def test_subcommand_loads_only_its_modules(self, tmp_path, argv, unloaded):
        loaded = self._loaded_modules([*argv, "--out", str(tmp_path / "out")])
        assert "cli" in loaded
        assert loaded & unloaded == set()

    def test_closed_pipe_exits_quietly(self):
        # The reader goes away before the first write, as with `| head`.
        proc = subprocess.Popen(
            [sys.executable, "-m", "altpd.cli", "integrate",
             "--p", "0.71,0.5,0.41,0.2", "--t", "0.002"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 1
        assert "Traceback" not in err

    def test_degenerate_chain_exits_2(self, capsys):
        code, _, err = run_cli(
            ["matrix", "--n", "1", "--p", "1,0.5,0.5,0", "--q", "1,0.5,0.5,0"],
            capsys,
        )
        assert code == 2
        assert "degeneracy" in err

    def test_console_script_end_to_end(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "altpd.cli", "matrix", "--n", "1",
             "--p", "allc", "--q", "alld", "--b", "2", "--c", "0.5"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["payoff_determinant"] == pytest.approx(-0.5, abs=1e-12)
