"""End-to-end checks of the command-line interface via main(argv)."""

import csv
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spellersim._container import load_container, save_container
from spellersim.alphabet import BACKSPACE, default_frequency_table
from spellersim.cli import _MAX_CV_REPEATS, _MAX_TRIAL_BUDGET, _PROTOCOL_KEYS, _RUN_KEYS, RunSpec, load_config, main
from spellersim.features import load_model
from spellersim.harness import _MAX_GAP_S, _MAX_TRAIN_TRIALS, BENCHMARK_SENTENCE, ProtocolConfig

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

    def test_cv_repeats_are_bounded(self, tmp_path):
        cfg = tmp_path / "repeats.cfg"
        cfg.write_text(f"cv_repeats = {_MAX_CV_REPEATS}\n")
        assert load_config(cfg).cv_repeats == _MAX_CV_REPEATS == 1_000
        for value in (_MAX_CV_REPEATS + 1, 10**9, 0):
            cfg.write_text(f"cv_repeats = {value}\n")
            with pytest.raises(ValueError, match=rf"cv_repeats must lie in \[1, 1,000\], got {value}"):
                load_config(cfg)

    def test_trial_budget_is_bounded(self, tmp_path):
        # a spell that never finishes runs to its budget, about 0.42 KB of log
        # and 61 us a trial
        cfg = tmp_path / "budget.cfg"
        assert load_config_by_name("fast_midsnr").trial_budget == 50_000
        cfg.write_text(f"trial_budget = {_MAX_TRIAL_BUDGET}\n")
        assert load_config(cfg).trial_budget == _MAX_TRIAL_BUDGET == 500_000
        for value in (_MAX_TRIAL_BUDGET + 1, 10**9, 0):
            cfg.write_text(f"trial_budget = {value}\n")
            with pytest.raises(ValueError, match=rf"trial_budget must lie in \[1, 500,000\], got {value}"):
                load_config(cfg)

    def test_cv_folds_are_bounded_by_the_class_floors(self, tmp_path):
        # a fast session holds at least 260 oddballs, and each fold needs one
        cfg = tmp_path / "folds.cfg"
        cfg.write_text("iti_ms = 160\ncv_folds = 260\n")
        assert load_config(cfg).cv_folds == 260
        for value in (261, 1, 10**9):
            cfg.write_text(f"iti_ms = 160\ncv_folds = {value}\n")
            with pytest.raises(ValueError, match=rf"cv_folds must lie in \[2, 260\], .* got {value}"):
                load_config(cfg)

    def test_train_chars_above_the_letter_count_rejected(self, tmp_path):
        # targets are distinct letters, so a session has at most 26 of them
        cfg = tmp_path / "chars.cfg"
        cfg.write_text("train_chars = 26\n")
        assert load_config(cfg).protocol.train_chars == 26
        cfg.write_text("train_chars = 27\n")
        with pytest.raises(ValueError, match=r"train_chars must lie in \[1, 26\].*got 27"):
            load_config(cfg)

    # no exit symbol runs to the budget; the subject never types a backspace
    # the sentence holds; an exit symbol before the end ends the session there
    UNFINISHABLE = ("HI", "H<I*", "H*I*")

    @pytest.mark.parametrize("sentence", UNFINISHABLE)
    def test_a_sentence_the_subject_cannot_finish_rejected(self, tmp_path, sentence):
        cfg = tmp_path / "sentence.cfg"
        cfg.write_text(f"sentence = {sentence}\n")
        with pytest.raises(ValueError, match="^sentence must "):
            load_config(cfg)

    def test_the_benchmark_sentence_and_its_repeats_are_accepted(self, tmp_path):
        cfg = tmp_path / "sentence.cfg"
        for sentence in ("*", "A*", BENCHMARK_SENTENCE, ">".join([BENCHMARK_SENTENCE.rstrip("*")] * 20) + "*"):
            cfg.write_text(f"sentence = {sentence}\n")
            assert load_config(cfg).sentence == sentence

    def test_a_repeated_key_keeps_its_last_value(self, tmp_path):
        cfg = tmp_path / "repeat.cfg"
        cfg.write_text("iti_ms = 160\niti_ms = 400\n")
        assert load_config(cfg).protocol.iti_ms == 400.0
        # the bounds apply to the value that wins
        cfg.write_text("trial_budget = 600000\ntrial_budget = 100\n")
        assert load_config(cfg).trial_budget == 100
        cfg.write_text("trial_budget = 100\ntrial_budget = 600000\n")
        with pytest.raises(ValueError, match="trial_budget must lie in"):
            load_config(cfg)
        # every line is parsed, so a malformed value fails even when replaced
        cfg.write_text("iti_ms = fast\niti_ms = 400\n")
        with pytest.raises(ValueError, match=r"repeat\.cfg:1: bad value for iti_ms: 'fast'"):
            load_config(cfg)

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
        # scipy.signal once cost most of the CLI start-up; no command needs it
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import spellersim.cli; "
            "loaded = [m for m in ('scipy.signal', 'scipy.linalg', 'scipy.special') if m in sys.modules]; "
            "assert not loaded, f'{loaded} imported'"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


def _loaded_after(argv: list[str]) -> dict:
    """Run one command in a fresh interpreter; which scipy modules it loaded,
    whether it mapped scipy's bundled OpenBLAS (None without /proc/self/maps),
    and how many bundled OpenBLAS libraries the BLAS pin finds afterwards."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import json, os, sys; sys.path.insert(0, {src!r})\n"
        "from spellersim import _fork\n"
        "from spellersim.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "mods = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "maps = '/proc/self/maps'\n"
        "blas = 'scipy.libs/libscipy_openblas' in open(maps).read() if os.path.exists(maps) else None\n"
        "print(json.dumps({'modules': mods, 'scipy_blas': blas, 'pools': len(_fork._openblas_pools())}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True, timeout=300
    )
    return json.loads(done.stdout.splitlines()[-1])


class TestImportsPerCommand:
    # scipy.linalg and scipy.special made up about 280 ms of every start-up;
    # the commands that fit a model (train, cv) load only scipy's LAPACK
    # extension, and no command imports a scipy module

    def test_commands_that_fit_no_model_load_no_scipy_module(self, trained, tmp_path):
        from spellersim import _fork

        pools = len(_fork._openblas_pools())
        model = str(trained / "model.bin")
        cfg = str(trained.parent / "oracle.cfg")
        for argv in (
            ["spell", "--config", cfg, "--model", model, "--seed", "1", "--out", str(tmp_path / "spell")],
            ["mc", "--runs", "3000", "--seed", "1", "--out", str(tmp_path / "mc")],
            ["itr", "channel", "--p-oo", "0.9", "--p-ee", "0.95"],
        ):
            loaded = _loaded_after(argv)
            assert loaded["modules"] == [], argv[0]
            # only a BLAS pin maps scipy's OpenBLAS (1.4 MB), and these
            # commands fit no model and, at these sizes, fork no pool
            assert loaded["scipy_blas"] in (False, None), argv[0]
            # the pin finds scipy's OpenBLAS without importing scipy
            assert loaded["pools"] == pools, argv[0]

    def test_train_and_cv_load_no_scipy_module(self, tmp_path):
        cfg = tmp_path / "short.cfg"
        cfg.write_text("iti_ms = 160\nsubject = midsnr\ntrain_chars = 2\ncv_repeats = 1\ncv_folds = 2\n")
        for command in ("train", "cv"):
            loaded = _loaded_after([command, "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / command)])
            assert loaded["modules"] == [], command
            # the fits call LAPACK in scipy's bundled OpenBLAS
            assert loaded["scipy_blas"] in (True, None), command

    def test_manifests_record_the_installed_scipy_version(self, trained, tmp_path, capsys):
        import scipy

        model, cfg = str(trained / "model.bin"), str(trained.parent / "oracle.cfg")
        assert main(["spell", "--config", cfg, "--model", model, "--out", str(tmp_path)]) == 0
        assert main(["mc", "--runs", "100", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        for manifest in (
            trained / "train_manifest.json",
            tmp_path / "spell_manifest.json",
            tmp_path / "mc_manifest.json",
        ):
            versions = json.loads(manifest.read_text())["versions"]
            assert versions["scipy"] == scipy.__version__
            assert versions["numpy"] == np.__version__


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

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.sampled_from(_KNOWN_KEYS), _values)
    @example("trial_budget", "500001")
    def test_any_value_of_one_key_gives_a_bounded_spec_or_value_error(self, tmp_path, key, value):
        _assert_one_key_gives_a_bounded_spec_or_value_error(tmp_path / "one.cfg", key, value)

    @pytest.mark.parametrize("value", _EDGE_VALUES)
    @pytest.mark.parametrize("key", _KNOWN_KEYS)
    def test_every_edge_value_of_every_key_gives_a_bounded_spec_or_value_error(self, tmp_path, key, value):
        _assert_one_key_gives_a_bounded_spec_or_value_error(tmp_path / "one.cfg", key, value)


def _assert_one_key_gives_a_bounded_spec_or_value_error(path, key, value):
    """A config of the one line `key = value` is rejected with a ValueError,
    or gives a RunSpec inside every bound."""
    path.write_text(f"{key} = {value}\n", encoding="utf-8")
    try:
        spec = load_config(path)
    except ValueError:
        return
    assert isinstance(spec, RunSpec)
    protocol = spec.protocol
    for name in _PROTOCOL_KEYS:
        field = getattr(protocol, name)
        assert isinstance(field, int) or math.isfinite(field), name
    assert 1 <= protocol.train_trial_count <= _MAX_TRAIN_TRIALS
    assert (protocol.iti_ms + protocol.overhead_ms) / 1000.0 <= _MAX_GAP_S
    assert protocol.pause_s <= _MAX_GAP_S
    assert 1 <= spec.cv_repeats <= _MAX_CV_REPEATS
    assert 2 <= spec.cv_folds <= min(protocol.class_floors)
    assert 1 <= spec.trial_budget <= _MAX_TRIAL_BUDGET


def load_preset_text(name: str) -> str:
    return resources.files("spellersim").joinpath(f"presets/{name}.cfg").read_text()


def load_config_by_name(name: str):
    from spellersim.cli import _resolve_config

    return load_config(_resolve_config(name))


class TestItr:
    def test_practical_reproduces_published_rate(self, capsys):
        code, out, _ = run_cli(capsys, "itr", "practical", "--nc", "44", "--t", "207.1", "--alphabet", "42")
        assert code == 0
        value = float(grab(out, "practical ITR:").split()[0])
        assert abs(value - 1.146) <= 1e-3

    def test_wolpaw_two_class(self, capsys):
        code, out, _ = run_cli(capsys, "itr", "wolpaw", "--classes", "2", "--pc", "0.857142857")
        assert code == 0
        value = float(grab(out, "wolpaw:").split()[0])
        assert abs(value - 0.408) <= 5e-4

    def test_perfect_channel_mutual_information(self, capsys):
        code, out, _ = run_cli(capsys, "itr", "channel", "--p-oo", "1", "--p-ee", "1")
        assert code == 0
        value = float(grab(out, "mutual information:").split()[0])
        assert abs(value - 0.592) <= 5e-4
        fano = float(grab(out, "fano lower bound:").split()[0])
        assert fano <= value + 1e-12

    def test_mixed_flag_groups_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["itr", "practical", "--nc", "44", "--t", "207.1", "--classes", "2"])
        assert exc.value.code == 2

    def test_underspecified_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["itr", "practical", "--nc", "44"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["itr", "wolpaw", "--classes", "2", "--pc", "0.9", "--alphabet", "5"],
            ["itr", "channel", "--p-oo", "1", "--p-ee", "1", "--nc", "4"],
            ["itr", "practical", "--nc", "44", "--t", "207.1", "--p-oo", "1"],
        ],
        ids=["wolpaw --alphabet", "channel --nc", "practical --p-oo"],
    )
    def test_a_form_rejects_another_forms_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_invalid_values_exit_nonzero(self, capsys):
        code, _, err = run_cli(capsys, "itr", "wolpaw", "--classes", "2", "--pc", "1.5")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_time_is_an_error(self, capsys, t):
        code, out, err = run_cli(capsys, "itr", "practical", "--nc", "44", "--t", t)
        assert code == 2
        assert out == ""
        assert err == f"error: duration must be positive and finite, got {t}\n"

    def test_nan_prior_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "itr", "channel", "--p-oo", "0.9", "--p-ee", "0.95", "--prior-o", "nan")
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

    # Digests of mc.csv for `mc --runs 3000 --seed 0`, pinned so that a change
    # to the permutation engine cannot move the bytes unnoticed.
    GOLDEN_MC_CSV = {
        "builtin": "b7e968d0d11b55de092ecc426a206b13bc677906b2b58c71ca1143853b36dcdd",
        "uniform": "fcb442c1edbb15a39b10b3bdaf9c2cd18ad6610a1e9b9bbbbd7a661dbceeb36c",
        "table": "12ed30037e24c5610bd1c99b1cf6b213210d4e12437b549bd6b1b34070ec7589",
    }

    # The same at 20,000 runs (20 blocks), which is enough to split the runs
    # across worker processes; pinned before the runs were split.
    GOLDEN_MC_CSV_20000 = {
        "builtin": "9272cc187d2ec8bb287024da65faa38fd301b09991f82186f08e7d6d4c70b393",
        "uniform": "5c4bef6cb9efecb82d90fa968643272575f9cd1cd1d3493aaacbdb0eb622b484",
        "table": "b83ba1ff68fca0c3f43ad7e4ef67c6e871004262f3c34795bc50c9561825b332",
    }

    @staticmethod
    def mc_csv_digest(capsys, tmp_path, source, runs):
        flags = {"builtin": [], "uniform": ["--uniform"]}.get(source)
        if flags is None:
            # linear weights 1..41 over the other symbols, the largest (42) on space
            symbols = [s for s in default_frequency_table().symbols if s != ">"]
            lines = [f"> {42 / 903!r}"]
            lines += [f"{s} {(k + 1) / 903!r}" for k, s in enumerate(symbols)]
            path = tmp_path / "linear.txt"
            path.write_text("\n".join(lines) + "\n")
            flags = ["--table", str(path)]
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "mc", *flags, "--runs", str(runs), "--seed", "0", "--out", str(out_dir)
        )
        assert code == 0
        return hashlib.sha256((out_dir / "mc.csv").read_bytes()).hexdigest()

    @pytest.mark.parametrize("source", sorted(GOLDEN_MC_CSV))
    def test_csv_bytes_are_pinned(self, capsys, tmp_path, source):
        assert self.mc_csv_digest(capsys, tmp_path, source, 3000) == self.GOLDEN_MC_CSV[source]

    @pytest.mark.parametrize("source", sorted(GOLDEN_MC_CSV_20000))
    def test_split_run_csv_bytes_are_pinned(self, capsys, tmp_path, source):
        got = self.mc_csv_digest(capsys, tmp_path, source, 20_000)
        assert got == self.GOLDEN_MC_CSV_20000[source]

    def test_invalid_table_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad_table.txt"
        bad.write_text("A not_a_number\n")
        code, _, err = run_cli(capsys, "mc", "--table", str(bad), "--runs", "10")
        assert code == 2
        assert "error" in err

    def test_missing_table_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "mc", "--table", str(tmp_path / "absent.txt"), "--runs", "10")
        assert code == 2
        assert err.startswith("error: ") and "absent.txt" in err

    def test_uniform_and_table_conflict(self, capsys, tmp_path):
        table = tmp_path / "t.txt"
        table.write_text("A 1.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--uniform", "--table", str(table)])
        assert exc.value.code == 2
        assert "argument --table: not allowed with argument --uniform" in capsys.readouterr().err

    def test_negative_seed_rejected(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "mc", "--runs", "10", "--seed", "-1", "--out", str(out))
        assert code == 2
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("runs", ["0", "-5"])
    def test_runs_below_one_rejected(self, capsys, runs):
        code, out, err = run_cli(capsys, "mc", "--runs", runs)
        assert code == 2
        assert out == ""
        assert err == "error: --runs must be >= 1\n"


# OpenBLAS kernel -> the key of its byte pins. The fits (syrk, dsyevr, dsygvd),
# the single-row extract and numpy's own SIMD loops round differently per
# instruction set, so model.bin and the posteriors in session.jsonl keep their
# bytes within one host family only. AVX2 hosts, Intel (OpenBLAS's Haswell
# kernel) or AMD (Zen), give one set of bytes; AVX-512 hosts (SkylakeX, also
# chosen on newer Intel cores), where numpy dispatches its X86_V4 loops, give
# another.
PIN_FAMILY = {"SkylakeX": "SkylakeX", "Haswell": "Haswell", "Zen": "Haswell"}
NUMPY_AVX512 = {"SkylakeX": True, "Haswell": False}
# what makes an AVX-512 host compute as an AVX2 one
AVX2_HOST_ENV = {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def numpy_avx512() -> bool:
    from numpy._core._multiarray_umath import __cpu_features__

    return bool(__cpu_features__.get("X86_V4"))


def blas_corename() -> str:
    """The kernel numpy's bundled OpenBLAS runs in this process, as the
    library names it (OPENBLAS_CORETYPE overrides its own choice)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    (path,) = libs.glob("libscipy_openblas64_*.so")
    corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def blas_pin_family() -> str:
    core, avx512 = blas_corename(), numpy_avx512()
    family = PIN_FAMILY.get(core)
    if family is None or NUMPY_AVX512[family] != avx512:
        pytest.fail(
            f"no byte pins for the OpenBLAS kernel {core!r} with numpy's X86_V4 loops "
            f"{'on' if avx512 else 'off'}; pinned: SkylakeX with them on, Haswell or Zen with them off"
        )
    return family


@pytest.mark.skipif(not numpy_avx512(), reason="emulates an AVX2 host on an AVX-512 one")
@pytest.mark.parametrize(
    "env, family",
    [
        (AVX2_HOST_ENV, "Haswell"),
        ({**AVX2_HOST_ENV, "OPENBLAS_CORETYPE": "Zen"}, "Haswell"),
        ({"OPENBLAS_CORETYPE": "Haswell"}, None),
        ({**AVX2_HOST_ENV, "OPENBLAS_CORETYPE": "Sandybridge"}, None),
    ],
    ids=["avx2", "zen", "haswell_blas_only", "sandybridge"],
)
def test_the_pin_family_follows_the_host(env, family):
    code = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "import test_cli\n"
        "print(test_cli.blas_pin_family())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, **env), capture_output=True, text=True, timeout=120
    )
    if family is None:
        # an unpinned combination fails by name; it never passes silently
        assert done.returncode != 0
        assert f"no byte pins for the OpenBLAS kernel {env['OPENBLAS_CORETYPE']!r}" in done.stderr + done.stdout
    else:
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == family


def test_every_kernel_family_pins_the_same_files():
    for table in (TestSpellBytes.GOLDEN_SPELL, TestTrainBytes.GOLDEN_TRAIN):
        families = {key: {preset: sorted(files) for preset, files in pins.items()} for key, pins in table.items()}
        assert sorted(families) == sorted(set(PIN_FAMILY.values()))
        assert families["Haswell"] == families["SkylakeX"]


class TestSpellBytes:
    # Digests of the spell outputs at seed 0, pinned so that a change to the
    # online trial path (synthesis, extract, decide, speller step) cannot move
    # the bytes unnoticed. The run's manifest digest, which both the log header
    # and the report carry, is blanked before hashing: it covers the library
    # version strings, not the session. The model comes from a 1x2 CV train;
    # the model depends only on the training session, so a default-CV train
    # gives the same one.
    GOLDEN_SPELL = {
        "SkylakeX": {
            "fast_oracle": {
                "session.jsonl": "a6a540a154aa99b544608531132eeef4edd134a11f5465a7fb3eb50718c6b029",
                "session_report.json": "a03d176b71c2454741a6a6a2fa9f4bb50ce2e8cea788cb0a505366059aad1f06",
                "session.csv": "57c18921226c7f6c2568c88463df9205ecfd4f479ac97c5fe621a74c1bf4458c",
            },
            "fast_midsnr": {
                "session.jsonl": "720b139735b00441791a2f40df30eabc3b3c9dac4e3ecd183b6bb79b8e3924b1",
                "session_report.json": "53376fbf6f5529adb06d6084ab6aa7a630f858f0221e248e0c2accead9582409",
                "session.csv": "f18ceb663bae8963a9d455f7310ddba625d16440d7561336d3cea66ad534bd7b",
            },
            "fast_noise": {
                "session.jsonl": "6806447bb64fbfbcd0452dcdb189c838735428318bbebbf6b43cb6413fb12263",
                "session_report.json": "9df66382d4c0722f95c06c840ec4037a76c3d9b7729a6c724e90c71ea84d5b58",
                "session.csv": "908124b36c355dd17069bc37af595732bda61f68f321e896bbf9d99a25319a58",
            },
        },
        "Haswell": {
            "fast_oracle": {
                "session.jsonl": "cf02cae97012126c6c8147dd03c1ccb4afc0ee4ef1fefe485e290bfc5fea5bfa",
                "session_report.json": "a03d176b71c2454741a6a6a2fa9f4bb50ce2e8cea788cb0a505366059aad1f06",
                "session.csv": "57c18921226c7f6c2568c88463df9205ecfd4f479ac97c5fe621a74c1bf4458c",
            },
            "fast_midsnr": {
                "session.jsonl": "690b49ef116bb988262500d1caba99528c8261f098c9d0d2ff17450d3ce140d8",
                "session_report.json": "53376fbf6f5529adb06d6084ab6aa7a630f858f0221e248e0c2accead9582409",
                "session.csv": "f18ceb663bae8963a9d455f7310ddba625d16440d7561336d3cea66ad534bd7b",
            },
            "fast_noise": {
                "session.jsonl": "c9255ccd786cccc9893b24db09231ffc63e167ba994c12a283ae6f079cfe8740",
                "session_report.json": "9df66382d4c0722f95c06c840ec4037a76c3d9b7729a6c724e90c71ea84d5b58",
                "session.csv": "908124b36c355dd17069bc37af595732bda61f68f321e896bbf9d99a25319a58",
            },
        },
    }

    # the midsnr session repeats the benchmark sentence so that it errs,
    # backspaces and selects by every mechanism
    EXTRA_LINES = {
        "fast_midsnr": [
            "sentence = " + ">".join([BENCHMARK_SENTENCE.rstrip("*")] * 5) + "*",
            "trial_budget = 3000",
        ],
    }

    # trials, and selections per mechanism (backspaces under "<")
    EXPECTED_COUNTS = {
        "fast_oracle": (153, {"Stage2": 20, "CompletionMode": 24}),
        "fast_midsnr": (1204, {"Stage2": 110, "CompletionMode": 120, "Integration": 2, "<": 6}),
        "fast_noise": (1909, {"Integration": 11}),
    }

    @pytest.fixture(scope="class", params=sorted(GOLDEN_SPELL["SkylakeX"]))
    def spelled(self, request, tmp_path_factory):
        preset = request.param
        work = tmp_path_factory.mktemp(f"golden_{preset}")
        cfg = work / f"{preset}.cfg"
        lines = ["cv_repeats = 1", "cv_folds = 2", *self.EXTRA_LINES.get(preset, [])]
        cfg.write_text(load_preset_text(preset) + "".join(f"{line}\n" for line in lines))
        model = work / "model"
        assert main(["train", "--config", str(cfg), "--seed", "0", "--out", str(model)]) == 0
        out = work / "spell"
        argv = ["spell", "--config", str(cfg), "--model", str(model / "model.bin")]
        assert main([*argv, "--seed", "0", "--out", str(out)]) == 0
        return preset, out

    def test_session_bytes_are_pinned(self, capsys, spelled):
        capsys.readouterr()
        preset, out = spelled
        digest = json.loads((out / "spell_manifest.json").read_text())["digest"].encode()
        golden = self.GOLDEN_SPELL[blas_pin_family()][preset]
        got = {
            name: hashlib.sha256((out / name).read_bytes().replace(digest, b"")).hexdigest()
            for name in golden
        }
        assert got == golden

    def test_sessions_cover_every_mechanism(self, capsys, spelled):
        capsys.readouterr()
        preset, out = spelled
        with open(out / "session.jsonl", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        selections = [r for r in records if r["record"] == "selection"]
        counts = {}
        for r in selections:
            counts[r["mechanism"]] = counts.get(r["mechanism"], 0) + 1
            if r["symbol"] == "<":
                counts["<"] = counts.get("<", 0) + 1
        n_trials = sum(r["record"] == "trial" for r in records)
        assert (n_trials, counts) == self.EXPECTED_COUNTS[preset]


class TestTrainBytes:
    # Digests of the train outputs at seed 0 and the presets' 10x10 CV, pinned
    # so that a change to synthesis, fitting or the CV cannot move the model or
    # the accuracy table unnoticed. The manifest digest that model.bin carries
    # is blanked before hashing, as in TestSpellBytes.
    GOLDEN_TRAIN = {
        "SkylakeX": {
            "fast_midsnr": {
                "model.bin": "5643711edbf2f16206c9944d1c1309d988e6579d4f7b8e4cde15dc9da4867218",
                "train_cv.csv": "224dba061b6ace520da0ca27421a9f010f20c8755559caedede10633b56c1154",
            },
            "fast_oracle": {
                "model.bin": "141cd66d931e564576b61a880383459a4e3b5bffca2a39259a7d6283fce0a22d",
                "train_cv.csv": "70b9b938e20dd11852a493f04637c738a0a81f88159c0be12ae8936db15996b7",
            },
        },
        "Haswell": {
            "fast_midsnr": {
                "model.bin": "2459db6887b1a40b06f9c77c7c4e92a5e23d87ac24f17d3a8804c15cb16a9be0",
                "train_cv.csv": "224dba061b6ace520da0ca27421a9f010f20c8755559caedede10633b56c1154",
            },
            "fast_oracle": {
                "model.bin": "e5aa992dfeacc2bb6583dfc2cf1a435f08baef538115ab62b178bd60d9ee14e9",
                "train_cv.csv": "70b9b938e20dd11852a493f04637c738a0a81f88159c0be12ae8936db15996b7",
            },
        },
    }

    @pytest.mark.parametrize("preset", sorted(GOLDEN_TRAIN["SkylakeX"]))
    def test_train_bytes_are_pinned(self, capsys, tmp_path, preset):
        assert main(["train", "--config", preset, "--seed", "0", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        digest = json.loads((tmp_path / "train_manifest.json").read_text())["digest"].encode()
        golden = self.GOLDEN_TRAIN[blas_pin_family()][preset]
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes().replace(digest, b"")).hexdigest()
            for name in golden
        }
        assert got == golden


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

    def test_artifacts_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # at one BLAS thread and at two, this session's final fit used to differ
        cfg = tmp_path / "short.cfg"
        cfg.write_text("iti_ms = 160\nsubject = midsnr\ntrain_chars = 4\ncv_repeats = 1\ncv_folds = 2\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            argv = ["train", "--config", str(cfg), "--seed", "1", "--out", str(out)]
            subprocess.run(
                [sys.executable, "-m", "spellersim.cli", *argv],
                env=env, check=True, capture_output=True, timeout=300,
            )
            outputs.append({name: (out / name).read_bytes() for name in ("model.bin", "train_cv.csv")})
        assert outputs[0] == outputs[1]

    def test_table_without_every_symbol_rejected(self, capsys, tmp_path):
        # the six rare letters removed: the speller would reject the table
        table = default_frequency_table()
        keep = [i for i, s in enumerate(table.symbols) if s not in "JKQVXZ"]
        probs = table.probs[keep] / table.probs[keep].sum()
        path = tmp_path / "no_rare.txt"
        path.write_text("".join(f"{table.symbols[i]} {float(p)!r}\n" for i, p in zip(keep, probs)))
        cfg = tmp_path / "no_rare.cfg"
        cfg.write_text(f"iti_ms = 400\nsubject = oracle\nfrequency_table = {path}\n")
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert err.startswith("error: frequency table must hold exactly the 42 speller symbols")
        assert "missing ['J', 'K', 'Q', 'V', 'X', 'Z']" in err
        assert not out.exists()
        # no other rejected run leaves its --out behind either
        for argv, message in (
            (("cv", "--config", "fast_oracle", "--seed", "-1"), "error: seed must be a non-negative integer"),
            (("spell", "--config", "fast_oracle", "--model", str(tmp_path / "absent.bin")), "error: [Errno 2]"),
        ):
            code, _, err = run_cli(capsys, *argv, "--out", str(out))
            assert code == 2
            assert err.startswith(message)
            assert not out.exists()

    def test_manifest_digests_are_real(self, trained):
        doc = json.loads((trained / "train_manifest.json").read_text())
        identity = {k: doc[k] for k in ("command", "seed", "config", "inputs", "versions")}
        blob = json.dumps(identity, sort_keys=True, separators=(",", ":")).encode()
        assert doc["digest"] == hashlib.sha256(blob).hexdigest()
        for name, digest in doc["outputs"].items():
            assert hashlib.sha256((trained / name).read_bytes()).hexdigest() == digest


class TestSpell:
    def test_table_with_an_extra_symbol_rejected(self, capsys, tmp_path, trained):
        # the bundled table plus "@": train rejects it, and so does spell
        table = default_frequency_table()
        lines = [f"{s} {float(p * (1.0 - 1e-3))!r}\n" for s, p in zip(table.symbols, table.probs)]
        path = tmp_path / "extra.txt"
        path.write_text("".join(lines) + "@ 0.001\n")
        cfg = tmp_path / "extra.cfg"
        cfg.write_text(f"iti_ms = 400\nsubject = oracle\nfrequency_table = {path}\n")
        out = tmp_path / "out"
        argv = ["spell", "--config", str(cfg), "--model", str(trained / "model.bin"), "--out", str(out)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == (
            "error: frequency table must hold exactly the 42 speller symbols: missing [], extra ['@']\n"
        )
        assert not out.exists()

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

    def test_exit_sentence_is_immediate(self, capsys, workdir, trained):
        cfg = workdir / "exit.cfg"
        cfg.write_text("iti_ms = 400\nsubject = oracle\nsentence = *\n")
        out_dir = workdir / "sp_exit"
        argv = ["spell", "--config", str(cfg), "--model", str(trained / "model.bin"), "--out", str(out_dir)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert grab(out, "N_c:").startswith("1 ")
        assert grab(out, "transcript:") == "*"
        # the sentence is a config setting, so the run identity names it
        assert json.loads((out_dir / "spell_manifest.json").read_text())["config"]["sentence"] == "*"

    @pytest.mark.parametrize("sentence", TestConfigLoading.UNFINISHABLE)
    def test_a_sentence_the_subject_cannot_finish_is_rejected_before_any_trial(
        self, capsys, workdir, trained, sentence
    ):
        cfg = workdir / "unfinishable.cfg"
        cfg.write_text(f"iti_ms = 400\nsubject = oracle\nsentence = {sentence}\n")
        out_dir = workdir / "sp_unfinishable"
        argv = ["spell", "--config", str(cfg), "--model", str(trained / "model.bin"), "--out", str(out_dir)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: sentence must ")
        assert not out_dir.exists()

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

    def test_model_without_a_classifier_rejected(self, capsys, workdir, oracle_cfg, trained):
        meta, arrays = load_container(trained / "model.bin")
        bare = workdir / "bare_model.bin"
        save_container(bare, {**meta, "classifier": None}, arrays)
        with pytest.raises(ValueError, match="^model container carries no classifier$"):
            load_model(bare)
        out_dir = workdir / "sp_bare"
        argv = ["spell", "--config", str(oracle_cfg), "--model", str(bare), "--out", str(out_dir)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == "error: model container carries no classifier\n"
        assert not out_dir.exists()

    def test_a_wrong_transcript_credits_no_selection(self, capsys, tmp_path):
        # the slow noise session at seed 0 errs on its first selection and
        # never gets back on track; a later selection that equals the
        # sentence character at its own position is still not correct
        cfg = tmp_path / "slow_noise.cfg"
        cfg.write_text(load_preset_text("slow_noise") + "cv_repeats = 1\ncv_folds = 2\n")
        assert main(["train", "--config", str(cfg), "--seed", "0", "--out", str(tmp_path / "model")]) == 0
        argv = ["spell", "--config", str(cfg), "--model", str(tmp_path / "model" / "model.bin")]
        code, out, _ = run_cli(capsys, *argv, "--seed", "0", "--out", str(tmp_path / "spell"))
        assert code == 0
        report = json.loads((tmp_path / "spell" / "session_report.json").read_text())
        assert report["prompt"].startswith("LA462MYR")
        with open(tmp_path / "spell" / "session.jsonl", encoding="utf-8") as fh:
            selected = [r["symbol"] for r in map(json.loads, fh) if r["record"] == "selection"]
        prompt, coincidences = "", 0
        for symbol in selected:
            assert not BENCHMARK_SENTENCE.startswith(prompt + symbol)
            at = len(prompt)
            coincidences += symbol != BACKSPACE and at < len(BENCHMARK_SENTENCE) and BENCHMARK_SENTENCE[at] == symbol
            prompt = prompt[:-1] if symbol == BACKSPACE else prompt + symbol
        assert coincidences >= 1
        assert (report["n_selections"], report["n_correct"]) == (len(selected), 0)
        assert report["practical_bits_per_sec"] == 0.0
        assert grab(out, "N_c:") == f"0 of {len(selected)} selections"
        with open(tmp_path / "spell" / "session.csv", newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["n_correct"], float(row["practical_bits_per_sec"])) == ("0", 0.0)

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


def _fails_before_it_starts(tmp_path, argv: list[str], names) -> None:
    """main(argv) in a child process under a 1 GiB address-space limit, so any
    large allocation fails, and a timeout: exit 2, one error line naming each
    of names, nothing printed and no --out made."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        f"sys.path.insert(0, {src!r})\n"
        "from spellersim.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-c", code, *argv, "--out", str(out)],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 2, done.stderr
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: ")
    for name in names:
        assert name in line, line
    assert done.stdout == ""
    assert not out.exists()


class TestCalibrationBound:
    def test_an_oversized_calibration_fails_before_it_allocates(self, tmp_path):
        # 1e12 s per character asks for 213 PiB of trial rows
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("iti_ms = 160\nsubject = oracle\ntrain_seconds_per_char = 1e12\n")
        names = ("train_chars", "train_seconds_per_char", "iti_ms", "50,000")
        _fails_before_it_starts(tmp_path, ["cv", "--config", str(cfg)], names)

    # a small midsnr model for spell: its noisy subject draws the noise of
    # every gap, where the oracle's silent one draws none
    SMALL_MIDSNR = "iti_ms = 160\nsubject = midsnr\ntrain_chars = 2\ncv_repeats = 1\ncv_folds = 2\n"

    @pytest.fixture(scope="class")
    def midsnr_model(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("midsnr_model")
        cfg = out / "small.cfg"
        cfg.write_text(self.SMALL_MIDSNR)
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        return out / "model.bin"

    @pytest.mark.parametrize(
        "argv, preset, lines, names",
        [
            # 1e9 repeats of fold assignments fill memory before any fit
            (["cv"], "fast_oracle", "cv_repeats = 1000000000", ["cv_repeats", "1,000"]),
            # one trial's gap draws 11.9 GiB of noise
            (["cv"], "fast_midsnr", "overhead_ms = 1e9", ["iti_ms", "overhead_ms", "10 s"]),
            (["cv"], "fast_midsnr", "iti_ms = 1e9\ntrain_seconds_per_char = 1e9", ["iti_ms", "overhead_ms", "10 s"]),
            # the first pause draws 11.6 TiB of noise
            (["spell"], None, "pause_s = 1e9", ["pause_s", "10 s"]),
            # once failed only after the whole calibration
            (["cv", "--subsample", "-3"], "fast_midsnr", "", ["--subsample", "70", "1826"]),
            # once passed or failed with the seed, after the whole calibration
            (["cv", "--subsample", "1827"], "fast_midsnr", "", ["--subsample", "70", "1826"]),
            # once ran 261 fold fits: a session may hold only 260 oddballs
            (["cv"], "fast_midsnr", "cv_folds = 261\ncv_repeats = 1", ["cv_folds", "260"]),
            # a spell that never finishes runs to its budget; 1e9 trials were
            # once accepted, about 420 GB of log and 17 h
            (["spell"], None, "trial_budget = 500001", ["trial_budget", "500,000"]),
            # train reads no dictionary, but digests the one the config names
            (["train"], "fast_midsnr", "dictionary = /nonexistent/words.txt", ["/nonexistent/words.txt"]),
        ],
        ids=[
            "cv_repeats",
            "overhead_ms",
            "iti_ms+train_seconds_per_char",
            "pause_s",
            "subsample",
            "subsample_above_the_class_floors",
            "cv_folds",
            "trial_budget",
            "missing_dictionary",
        ],
    )
    def test_an_unbounded_run_fails_before_it_starts(self, tmp_path, request, argv, preset, lines, names):
        cfg = tmp_path / "edit.cfg"
        argv = [*argv, "--config", str(cfg)]
        if preset is None:
            cfg.write_text(f"{self.SMALL_MIDSNR}{lines}\n")
            argv += ["--model", str(request.getfixturevalue("midsnr_model"))]
        else:
            cfg.write_text(f"{load_preset_text(preset)}{lines}\n")
        _fails_before_it_starts(tmp_path, argv, names)


class TestRemovedKnobs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spell", "--config", "slow_oracle", "--model", "model.bin", "--sentence", "HI*"],
            ["itr", "practical", "--nc", "44", "--t", "207.1", "--seed", "1"],
            ["itr", "practical", "--nc", "44", "--t", "207.1", "--out", "run"],
        ],
        ids=["spell --sentence", "itr --seed", "itr --out"],
    )
    def test_removed_flag_is_a_usage_error(self, capsys, argv):
        # the sentence comes from the config alone; itr reads no seed and writes no file
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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


class TestInputFilesEnterTheRunDigest:
    """A config names its table and dictionary by path, and mc its table;
    the bytes of those files enter the run digest, so editing one changes it."""

    @staticmethod
    def write_table(path: Path, swap_e_and_t: bool) -> None:
        table = default_frequency_table()
        probs = dict(zip(table.symbols, table.probs.tolist()))
        if swap_e_and_t:
            probs["E"], probs["T"] = probs["T"], probs["E"]
        path.write_text("".join(f"{s} {p!r}\n" for s, p in probs.items()))

    @staticmethod
    def manifest(out: Path, name: str) -> dict:
        return json.loads((out / name).read_text())

    def test_mc_table(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        docs = []
        for swap in (False, False, True):
            self.write_table(path, swap)
            out = tmp_path / f"out{len(docs)}"
            code, _, _ = run_cli(capsys, "mc", "--runs", "10", "--table", str(path), "--out", str(out))
            assert code == 0
            docs.append(self.manifest(out, "mc_manifest.json"))
            assert docs[-1]["inputs"] == {"table": hashlib.sha256(path.read_bytes()).hexdigest()}
        assert docs[0]["digest"] == docs[1]["digest"] != docs[2]["digest"]
        assert docs[1]["outputs"] != docs[2]["outputs"]
        # the bundled and the uniform table name no file
        code, _, _ = run_cli(capsys, "mc", "--runs", "10", "--uniform", "--out", str(tmp_path / "u"))
        assert code == 0
        assert self.manifest(tmp_path / "u", "mc_manifest.json")["inputs"] == {}

    def test_spell_table_and_dictionary(self, capsys, tmp_path, trained):
        table, words = tmp_path / "table.txt", tmp_path / "words.txt"
        cfg = tmp_path / "files.cfg"
        cfg.write_text(f"iti_ms = 400\nsubject = oracle\nfrequency_table = {table}\ndictionary = {words}\n")
        edits = [(False, "THE\nFOX\n"), (False, "THE\nFOX\n"), (True, "THE\nFOX\n"), (True, "THE\nFOX\nDOG\n")]
        docs = []
        for swap, text in edits:
            self.write_table(table, swap)
            words.write_text(text)
            out = tmp_path / f"out{len(docs)}"
            argv = ["spell", "--config", str(cfg), "--model", str(trained / "model.bin"), "--out", str(out)]
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0
            docs.append(self.manifest(out, "spell_manifest.json"))
            assert docs[-1]["inputs"] == {
                "model.bin": hashlib.sha256((trained / "model.bin").read_bytes()).hexdigest(),
                "frequency_table": hashlib.sha256(table.read_bytes()).hexdigest(),
                "dictionary": hashlib.sha256(words.read_bytes()).hexdigest(),
            }
        digests = [doc["digest"] for doc in docs]
        assert digests[0] == digests[1]
        assert len(set(digests[1:])) == 3

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_calibration_table(self, capsys, tmp_path, command):
        table = tmp_path / "table.txt"
        cfg = tmp_path / "table.cfg"
        cfg.write_text(f"iti_ms = 400\nsubject = oracle\ncv_repeats = 1\ncv_folds = 2\nfrequency_table = {table}\n")
        digests = []
        for swap in (False, True):
            self.write_table(table, swap)
            out = tmp_path / f"out{len(digests)}"
            code, _, _ = run_cli(capsys, command, "--config", str(cfg), "--out", str(out))
            assert code == 0
            doc = self.manifest(out, f"{command}_manifest.json")
            assert doc["inputs"] == {"frequency_table": hashlib.sha256(table.read_bytes()).hexdigest()}
            digests.append(doc["digest"])
        assert digests[0] != digests[1]


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
    @pytest.mark.parametrize("where", ["option", "config"])
    def test_negative_seed_rejected(self, capsys, tmp_path, where):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("iti_ms = 400\nsubject = oracle\n" + ("seed = -1\n" if where == "config" else ""))
        argv = ["cv", "--config", str(cfg), "--out", str(tmp_path / "out")]
        if where == "option":
            argv += ["--seed", "-1"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == "error: seed must be a non-negative integer, got -1\n"

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

    def test_subsample_enters_the_run_digest(self, capsys, workdir):
        cfg = workdir / "cv_digest.cfg"
        cfg.write_text("iti_ms = 400\nsubject = oracle\ncv_repeats = 1\ncv_folds = 2\n")
        manifests = []
        for extra in ([], ["--subsample", "600"]):
            out_dir = workdir / f"cv_digest{len(extra)}"
            assert main(["cv", "--config", str(cfg), *extra, "--out", str(out_dir)]) == 0
            manifests.append(json.loads((out_dir / "cv_manifest.json").read_text()))
        capsys.readouterr()
        plain, sub = manifests
        assert "subsample" not in plain["config"]
        assert sub["config"] == {**plain["config"], "subsample": 600}
        assert sub["digest"] != plain["digest"]


@pytest.mark.parametrize("command", ["train", "cv", "spell", "mc"])
def test_out_naming_a_file_is_rejected_before_the_run(capsys, tmp_path, oracle_cfg, trained, command):
    afile = tmp_path / "afile"
    afile.write_bytes(b"keep me\n")
    argv = {
        "train": ["train", "--config", str(oracle_cfg)],
        "cv": ["cv", "--config", str(oracle_cfg)],
        "spell": ["spell", "--config", str(oracle_cfg), "--model", str(trained / "model.bin")],
        "mc": ["mc", "--runs", "10"],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--out", str(afile))
    assert code == 2
    assert out == ""
    assert err == f"error: --out {str(afile)!r} exists and is not a directory\n"
    assert afile.read_bytes() == b"keep me\n"
