"""End-to-end checks of the command-line interface via main(argv)."""

import csv
import dataclasses
import hashlib
import json
import math
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spellersim._container import load_container, save_container
from spellersim.cli import _PROTOCOL_KEYS, _RUN_KEYS, RunSpec, load_config, main
from spellersim.harness import ProtocolConfig

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(stdout: str, prefix: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix) :].strip()
    raise AssertionError(f"no line starts with {prefix!r}:\n{stdout}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def oracle_cfg(workdir):
    path = workdir / "oracle.cfg"
    path.write_text(
        "# test protocol\niti_ms = 400\nsubject = oracle\nseed = 0\ncv_repeats = 2\ncv_folds = 10\n"
    )
    return path


@pytest.fixture(scope="module")
def trained(workdir, oracle_cfg):
    out = workdir / "trained"
    code = main(["train", "--config", str(oracle_cfg), "--seed", "5", "--out", str(out)])
    assert code == 0
    return out


class TestConfigLoading:
    def test_presets_resolve_by_name(self):
        spec = load_config_by_name("fast_midsnr")
        assert spec.protocol.iti_ms == 160.0
        assert spec.subject == "midsnr"

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("iti_sm = 400\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(bad)

    def test_bad_value_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("iti_ms = fast\n")
        with pytest.raises(ValueError, match="bad value"):
            load_config(bad)

    def test_missing_equals_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("iti_ms 400\n")
        with pytest.raises(ValueError, match="key = value"):
            load_config(bad)

    def test_run_settings_validated(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("cv_folds = 1\n")
        with pytest.raises(ValueError):
            load_config(bad)

    def test_accepted_keys_are_the_dataclass_fields(self):
        protocol = {f.name for f in dataclasses.fields(ProtocolConfig)}
        run = {f.name for f in dataclasses.fields(RunSpec)} - {"protocol"}
        assert set(_PROTOCOL_KEYS) == protocol and len(protocol) == 10
        assert set(_RUN_KEYS) == run and len(protocol | run) == 17
        for key, kind in {**_PROTOCOL_KEYS, **_RUN_KEYS}.items():
            assert kind in ("int", "float", "str", "str | None"), key

    def test_readme_lists_exactly_the_accepted_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        start = readme.index("The accepted keys are")
        sentence = readme[start : readme.index(".", start)]
        assert set(re.findall(r"`(\w+)`", sentence)) == set(_PROTOCOL_KEYS) | set(_RUN_KEYS)

    def test_package_import_leaves_scipy_signal_unloaded(self):
        # scipy.signal costs most of the CLI start-up and only AR(1) noise needs it
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import spellersim.cli; "
            "assert 'scipy.signal' not in sys.modules, 'scipy.signal was imported'"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


_KNOWN_KEYS = tuple(sorted(_PROTOCOL_KEYS)) + tuple(_RUN_KEYS)
_EDGE_VALUES = (
    "nan",
    "-nan",
    "inf",
    "-inf",
    "Infinity",
    "-0",
    "-0.0",
    "0",
    "1e308",
    "1e309",
    "5e-324",
    "",
    "9" * 400,
    str(2**64),
    str(-(2**70)),
    "1_000",
    "0x10",
    "midsnr",
    "oracle",
)
_values = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=12),
)
_lines = st.one_of(
    st.builds(lambda k, v: f"{k} = {v}".encode(), st.sampled_from(_KNOWN_KEYS), _values),
    st.builds(lambda k, v: f"{k}={v}".encode(), st.text(max_size=10), _values),
    st.text(max_size=20).map(lambda t: t.replace("=", "").encode()),
    st.binary(max_size=16),
)


class TestConfigFuzz:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.lists(_lines, max_size=8).map(b"\n".join))
    def test_loader_gives_spec_or_value_error(self, tmp_path, content):
        path = tmp_path / "fuzz.cfg"
        path.write_bytes(content)
        try:
            spec = load_config(path)
        except ValueError:
            return
        assert isinstance(spec, RunSpec)
        for key in _PROTOCOL_KEYS:
            value = getattr(spec.protocol, key)
            assert isinstance(value, int) or math.isfinite(value), key
        assert spec.protocol.trials_per_char >= 1


def load_config_by_name(name: str):
    from spellersim.cli import _resolve_config

    return load_config(_resolve_config(name))


class TestItr:
    def test_practical_reproduces_published_rate(self, capsys):
        code, out, _ = run_cli(capsys, "itr", "--nc", "44", "--t", "207.1", "--alphabet", "42")
        assert code == 0
        value = float(grab(out, "practical ITR:").split()[0])
        assert abs(value - 1.146) <= 1e-3

    def test_wolpaw_two_class(self, capsys):
        code, out, _ = run_cli(capsys, "itr", "--wolpaw", "--classes", "2", "--pc", "0.857142857")
        assert code == 0
        value = float(grab(out, "wolpaw:").split()[0])
        assert abs(value - 0.408) <= 5e-4

    def test_perfect_channel_mutual_information(self, capsys):
        code, out, _ = run_cli(capsys, "itr", "--p-oo", "1", "--p-ee", "1")
        assert code == 0
        value = float(grab(out, "mutual information:").split()[0])
        assert abs(value - 0.592) <= 5e-4
        fano = float(grab(out, "fano lower bound:").split()[0])
        assert fano <= value + 1e-12

    def test_mixed_flag_groups_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["itr", "--nc", "44", "--wolpaw"])
        assert exc.value.code == 2

    def test_underspecified_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["itr", "--nc", "44"])
        assert exc.value.code == 2

    def test_invalid_values_exit_nonzero(self, capsys):
        code, _, err = run_cli(capsys, "itr", "--wolpaw", "--classes", "2", "--pc", "1.5")
        assert code == 2
        assert "error" in err

    def test_nan_prior_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "itr", "--p-oo", "0.9", "--p-ee", "0.95", "--prior-o", "nan")
        assert code == 2
        assert err.startswith("error:") and "finite" in err
        assert "mutual information" not in out


class TestMc:
    def test_frequent_symbol_lands_early(self, capsys, workdir):
        out_dir = workdir / "mc"
        code, out, _ = run_cli(
            capsys, "mc", "--runs", "20000", "--seed", "1", "--out", str(out_dir)
        )
        assert code == 0
        top = grab(out, "most frequent symbol:")
        assert top.startswith("'>'")
        assert 1.4 <= float(top.split()[-1]) <= 1.8
        assert float(grab(out, "top-12 pooled mean group:")) <= 2.0
        assert (out_dir / "mc.csv").exists()
        assert (out_dir / "mc_manifest.json").exists()

    def test_csv_holds_plain_numbers(self, capsys, workdir):
        out_dir = workdir / "mc_csv"
        code, _, _ = run_cli(capsys, "mc", "--runs", "500", "--seed", "4", "--out", str(out_dir))
        assert code == 0
        with open(out_dir / "mc.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["symbol", "prob", "mean_group", "mean_position"]
        assert len(rows) == 43
        assert "," in [row[0] for row in rows[1:]]
        for row in rows[1:]:
            assert len(row) == 4
            prob, mean_group, mean_position = (float(v) for v in row[1:])
            assert 0.0 < prob < 1.0
            assert 1.0 <= mean_group <= 7.0
            assert 1.0 <= mean_position <= 42.0

    def test_uniform_table_centers_on_fourth_group(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "--uniform", "--runs", "20000", "--seed", "2")
        assert code == 0
        table_rows = [
            line.split() for line in out.splitlines() if len(line.split()) == 4 and "." in line
        ]
        means = [float(row[2]) for row in table_rows if row[2][0].isdigit()]
        assert len(means) == 42
        for mean in means:
            assert abs(mean - 4.0) < 0.15

    def test_single_run_gives_integer_groups(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "--runs", "1", "--seed", "3")
        assert code == 0
        table_rows = [
            line.split() for line in out.splitlines() if len(line.split()) == 4 and "." in line
        ]
        means = [float(row[2]) for row in table_rows if row[2][0].isdigit()]
        assert len(means) == 42
        assert all(mean.is_integer() for mean in means)

    def test_invalid_table_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad_table.txt"
        bad.write_text("A not_a_number\n")
        code, _, err = run_cli(capsys, "mc", "--table", str(bad), "--runs", "10")
        assert code == 2
        assert "error" in err

    def test_uniform_and_table_conflict(self, capsys, tmp_path):
        table = tmp_path / "t.txt"
        table.write_text("A 1.0\n")
        code, _, err = run_cli(capsys, "mc", "--uniform", "--table", str(table))
        assert code == 2


class TestTrain:
    def test_oracle_reports_perfect_cv(self, capsys, trained):
        # rerun into a fresh dir to capture stdout
        code, out, _ = run_cli(
            capsys,
            "train",
            "--config",
            str(trained.parent / "oracle.cfg"),
            "--seed",
            "5",
            "--out",
            str(trained.parent / "trained_echo"),
        )
        assert code == 0
        assert grab(out, "cv accuracy:").startswith("100.00%")
        assert "above chance" in grab(out, "chance level:")
        assert (trained / "model.bin").exists()
        assert (trained / "train_cv.csv").exists()

    def test_noise_is_flagged_at_chance(self, capsys, workdir):
        cfg = workdir / "noise.cfg"
        cfg.write_text("iti_ms = 160\nsubject = noise\nseed = 0\ncv_repeats = 2\n")
        code, out, _ = run_cli(
            capsys, "train", "--config", str(cfg), "--out", str(workdir / "noise_run")
        )
        assert code == 0
        assert "at chance" in grab(out, "chance level:")
        acc = float(grab(out, "cv accuracy:").split("%")[0])
        assert abs(acc - 85.71) <= 1.0

    def test_same_seed_is_byte_identical(self, capsys, workdir, oracle_cfg, trained):
        again = workdir / "trained_again"
        code = main(["train", "--config", str(oracle_cfg), "--seed", "5", "--out", str(again)])
        capsys.readouterr()
        assert code == 0
        for name in ("model.bin", "train_cv.csv", "train_manifest.json"):
            assert (again / name).read_bytes() == (trained / name).read_bytes()

    def test_other_seed_changes_the_model(self, capsys, workdir, oracle_cfg, trained):
        other = workdir / "trained_other"
        code = main(["train", "--config", str(oracle_cfg), "--seed", "6", "--out", str(other)])
        capsys.readouterr()
        assert code == 0
        assert (other / "model.bin").read_bytes() != (trained / "model.bin").read_bytes()

    def test_manifest_digests_are_real(self, trained):
        doc = json.loads((trained / "train_manifest.json").read_text())
        identity = {k: doc[k] for k in ("command", "seed", "config", "inputs", "versions")}
        blob = json.dumps(identity, sort_keys=True, separators=(",", ":")).encode()
        assert doc["digest"] == hashlib.sha256(blob).hexdigest()
        for name, digest in doc["outputs"].items():
            assert hashlib.sha256((trained / name).read_bytes()).hexdigest() == digest


class TestSpell:
    def test_benchmark_session(self, capsys, workdir, oracle_cfg, trained):
        out_dir = workdir / "spelled"
        code, out, _ = run_cli(
            capsys,
            "spell",
            "--config",
            str(oracle_cfg),
            "--model",
            str(trained / "model.bin"),
            "--seed",
            "7",
            "--out",
            str(out_dir),
        )
        assert code == 0
        assert grab(out, "completed:") == "yes"
        assert grab(out, "N_c:").startswith("44")
        identity = grab(out, "accounting identity:")
        assert float(identity.split("=")[-1].split()[0]) < 5e-3
        assert "bits/s" in grab(out, "practical ITR:")
        assert "bits/s" in grab(out, "active-time ITR:")
        # the log header references the manifest that produced it
        manifest = json.loads((out_dir / "spell_manifest.json").read_text())
        header = json.loads((out_dir / "session.jsonl").read_text().splitlines()[0])
        assert header["meta"]["manifest_digest"] == manifest["digest"]

    def test_spell_repeats_byte_identically(self, capsys, workdir, oracle_cfg, trained):
        dirs = [workdir / "sp_a", workdir / "sp_b"]
        for d in dirs:
            code = main(
                [
                    "spell",
                    "--config",
                    str(oracle_cfg),
                    "--model",
                    str(trained / "model.bin"),
                    "--seed",
                    "7",
                    "--out",
                    str(d),
                ]
            )
            capsys.readouterr()
            assert code == 0
        for name in ("session.jsonl", "session_report.json", "session.csv", "spell_manifest.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_exit_sentence_is_immediate(self, capsys, workdir, oracle_cfg, trained):
        code, out, _ = run_cli(
            capsys,
            "spell",
            "--config",
            str(oracle_cfg),
            "--model",
            str(trained / "model.bin"),
            "--sentence",
            "*",
            "--out",
            str(workdir / "sp_exit"),
        )
        assert code == 0
        assert grab(out, "N_c:").startswith("1 ")
        assert grab(out, "transcript:") == "*"

    def test_iti_mismatch_rejected(self, capsys, workdir, trained):
        fast_cfg = workdir / "fast.cfg"
        fast_cfg.write_text("iti_ms = 160\nsubject = oracle\n")
        code, _, err = run_cli(
            capsys,
            "spell",
            "--config",
            str(fast_cfg),
            "--model",
            str(trained / "model.bin"),
            "--out",
            str(workdir / "sp_bad"),
        )
        assert code == 2
        assert "trained at iti_ms=400" in err

    @pytest.mark.parametrize("keep", [0, -100])
    def test_truncated_model_is_an_error(self, capsys, workdir, oracle_cfg, trained, keep):
        blob = (trained / "model.bin").read_bytes()
        cut = workdir / f"cut_{keep}.bin"
        cut.write_bytes(blob[:keep])
        code, _, err = run_cli(
            capsys,
            "spell",
            "--config",
            str(oracle_cfg),
            "--model",
            str(cut),
            "--out",
            str(workdir / "sp_cut"),
        )
        assert code == 2
        assert err.startswith("error: truncated container")

    @pytest.mark.parametrize(
        "command, line, field",
        [
            ("spell", "pause_s = inf", "pause_s"),
            ("spell", "overhead_ms = inf", "overhead_ms"),
            ("spell", "theta_stage1 = nan", "theta_stage1"),
            ("train", "iti_ms = inf", "iti_ms"),
            ("train", "train_seconds_per_char = 0.1", "train_seconds_per_char"),
        ],
    )
    def test_unusable_config_value_is_an_error(
        self, capsys, workdir, trained, command, line, field
    ):
        cfg = workdir / f"bad_{field}.cfg"
        cfg.write_text(f"iti_ms = 400\nsubject = oracle\n{line}\n")
        argv = [command, "--config", str(cfg), "--out", str(workdir / f"bad_{field}")]
        if command == "spell":
            argv += ["--model", str(trained / "model.bin")]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")
        assert field in err
        if field == "train_seconds_per_char":
            assert "iti_ms" in err


class TestRemovedKnobs:
    @pytest.mark.parametrize("line", ["duty_cycle = 0.6", "t_a_ms = 300", "t_d_ms = 100"])
    def test_removed_window_knob_is_an_unknown_key(self, capsys, workdir, line):
        key = line.split()[0]
        cfg = workdir / f"knob_{key}.cfg"
        cfg.write_text(f"iti_ms = 400\nsubject = oracle\n{line}\n")
        code, _, err = run_cli(
            capsys, "train", "--config", str(cfg), "--out", str(workdir / f"knob_{key}")
        )
        assert code == 2
        assert err.startswith("error:")
        assert f"unknown key {key!r}" in err


def _raw_container(meta, specs, body: bytes) -> bytes:
    """Container bytes with a hand-written array table."""
    header = json.dumps({"meta": meta, "arrays": specs}, sort_keys=True).encode()
    return struct.pack("<4sHHI", b"SSMC", 1, 0, len(header)) + header + body


class TestMalformedModel:
    @pytest.fixture(scope="class")
    def parts(self, trained):
        return load_container(trained / "model.bin")

    def _spell(self, capsys, workdir, oracle_cfg, path):
        return run_cli(
            capsys,
            "spell",
            "--config",
            str(oracle_cfg),
            "--model",
            str(path),
            "--out",
            str(workdir / "sp_malformed"),
        )

    def test_array_table_that_is_not_a_list(self, capsys, workdir, oracle_cfg, parts):
        path = workdir / "arrays_5.bin"
        path.write_bytes(_raw_container(parts[0], 5, b""))
        code, _, err = self._spell(capsys, workdir, oracle_cfg, path)
        assert code == 2
        assert err.startswith("error:") and "'arrays'" in err

    def test_array_larger_than_the_file(self, capsys, workdir, oracle_cfg, parts):
        path = workdir / "huge.bin"
        spec = {"name": "global_mean", "dtype": "<f8", "shape": [10**20]}
        path.write_bytes(_raw_container(parts[0], [spec], b"\0" * 64))
        code, _, err = self._spell(capsys, workdir, oracle_cfg, path)
        assert code == 2
        assert err.startswith("error: truncated container: array 'global_mean'")

    def test_one_dimensional_basis(self, capsys, workdir, oracle_cfg, parts):
        meta, arrays = parts
        path = workdir / "flat_basis.bin"
        save_container(path, meta, dict(arrays, o_basis=arrays["o_basis"].ravel()))
        code, _, err = self._spell(capsys, workdir, oracle_cfg, path)
        assert code == 2
        assert err.startswith("error: subspace basis must be (d, m)")

    def test_mean_whose_offset_overflows(self, capsys, workdir, oracle_cfg, parts):
        # every value is finite, but mean @ basis is not
        meta, arrays = parts
        path = workdir / "huge_mean.bin"
        save_container(path, meta, dict(arrays, o_mean=np.full_like(arrays["o_mean"], 1.7e308)))
        code, out, err = self._spell(capsys, workdir, oracle_cfg, path)
        assert code == 2
        assert err.startswith("error: subspace offset")
        assert "completed:" not in out

    def test_string_eta(self, capsys, workdir, oracle_cfg, parts):
        meta, arrays = parts
        path = workdir / "string_eta.bin"
        save_container(path, dict(meta, eta="0.9"), arrays)
        code, _, err = self._spell(capsys, workdir, oracle_cfg, path)
        assert code == 2
        assert err.startswith("error:") and "'eta'" in err


class TestCv:
    def test_cv_with_subsample(self, capsys, workdir):
        cfg = workdir / "cv_oracle.cfg"
        cfg.write_text("iti_ms = 160\nsubject = oracle\nseed = 0\ncv_repeats = 1\n")
        out_dir = workdir / "cv_run"
        code, out, _ = run_cli(
            capsys, "cv", "--config", str(cfg), "--subsample", "750", "--out", str(out_dir)
        )
        assert code == 0
        assert grab(out, "cv accuracy:").startswith("100.00%")
        assert grab(out, "subsample n=750:").startswith("100.00%")
        table = (out_dir / "cv.csv").read_text().splitlines()
        assert len(table) == 3  # header + full row + subsample row
        assert (out_dir / "cv_manifest.json").exists()
