"""Selection state machine: modes, completion, integration, clock."""
import collections
import json
import math

import numpy as np
import pytest

from spellersim.alphabet import (
    BACKSPACE,
    EXIT,
    SPACE,
    SYMBOLS,
    FrequencyTable,
    default_frequency_table,
    draw_permutation,
    form_cycle,
)
from spellersim.harness import ProtocolConfig, run_training
from spellersim.signal import subject_preset
from spellersim.speller import (
    COMPLETION,
    EXITED,
    INTEGRATION,
    STAGE1,
    STAGE2,
    Dictionary,
    SelectionEvent,
    SessionLog,
    Speller,
    apply_selection,
    completion_candidates,
    current_word,
    default_dictionary,
    load_dictionary,
    load_session_log,
)

BENCHMARK = "THE>QUICK>BROWN>FOX>JUMPS>OVER>THE>LAZY>DOG*"


@pytest.fixture
def make_speller(frequency, dictionary):
    """Speller(rng, ...) on the bundled tables and the protocol's pause,
    unless told otherwise."""

    def make(seed=0, *, frequency=frequency, dictionary=dictionary, pause_s=ProtocolConfig().pause_s):
        return Speller(np.random.default_rng(seed), frequency, dictionary, pause_s=pause_s)

    return make


def drive_oracle(speller: Speller, target: str, iti_ms=400.0, overhead_ms=12.0, max_trials=20_000):
    """Perfect-decision drive: attend the next target character."""
    events_out = []
    trials = 0
    while speller.mode != EXITED and trials < max_trials:
        stimulus = speller.next_stimulus()
        desired = target[len(speller.prompt)]
        is_odd = desired in stimulus
        events = speller.step(is_odd, 1.0 if is_odd else 0.0)
        speller.advance_clock(iti_ms, events, overhead_ms)
        for ev in events:
            events_out.append((ev, stimulus))
        trials += 1
    assert trials < max_trials, "oracle drive did not finish"
    return events_out


class TestDictionary:
    def test_lookup_next_characters(self):
        d = Dictionary(["QUICK", "QUIET", "QUOTE"])
        assert d.lookup("QU") == ("I", "O")
        assert d.lookup("QUIC") == ("K",)
        assert d.lookup("QUICK") == ()

    def test_case_normalized_and_deduplicated(self):
        d = Dictionary(["the", "The", "THE"])
        assert d.words == ("THE",)

    def test_non_letters_rejected(self):
        with pytest.raises(ValueError):
            Dictionary(["CAN'T"])

    def test_loader_skips_comments(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("# header\nfox\n\nDOG # trailing\n")
        d = load_dictionary(path)
        assert d.words == ("DOG", "FOX")

    def test_bundled_dictionary_contains_benchmark_words(self):
        d = default_dictionary()
        for word in ("THE", "QUICK", "BROWN", "FOX", "JUMPS", "OVER", "LAZY", "DOG"):
            assert word in d.words


class TestCompletionCandidates:
    def test_unique_completion(self):
        d = Dictionary(["QUICK"])
        assert completion_candidates(d, "AB>QUIC") == ("K",)

    def test_word_boundary_gives_nothing(self):
        d = Dictionary(["QUICK", "DOG"])
        assert completion_candidates(d, "") == ()
        assert completion_candidates(d, "DOG>") == ()

    def test_more_than_five_continuations_gives_nothing(self):
        words = ["TA", "TB", "TC", "TD", "TE", "TF"]
        assert completion_candidates(Dictionary(words), "T") == ()
        five = Dictionary(words[:5])
        assert len(completion_candidates(five, "T")) == 5

    def test_current_word_stops_at_non_letters(self):
        assert current_word("THE>QUIC") == "QUIC"
        assert current_word("A2") == ""
        assert current_word("DOG") == "DOG"


class TestApplySelection:
    def test_backspace(self):
        assert apply_selection("TH", BACKSPACE) == "T"

    def test_backspace_on_empty_is_noop(self):
        assert apply_selection("", BACKSPACE) == ""

    def test_append(self):
        assert apply_selection("T", "H") == "TH"

    def test_exit_symbol_appends(self):
        assert apply_selection("DOG", EXIT) == "DOG*"


class TestStage1:
    def test_full_idle_cycle_rerandomizes(self, make_speller):
        speller = make_speller(seed=3)
        seen_groups = []
        for _ in range(7):
            stimulus = speller.next_stimulus()
            seen_groups.append(stimulus)
            events = speller.step(False, 0.1)
            assert events == []
            speller.advance_clock(400.0, events, 0.0)
        first_order = tuple(s for g in seen_groups for s in g)
        assert sorted(first_order) == sorted(SYMBOLS)
        next_group = speller.next_stimulus()
        assert speller.mode == STAGE1
        # a fresh biased permutation starts; identical redraw is essentially
        # impossible
        second_cycle = [next_group]
        speller.step(False, 0.1)
        for _ in range(6):
            second_cycle.append(speller.next_stimulus())
            speller.step(False, 0.1)
        assert tuple(s for g in second_cycle for s in g) != first_order

    def test_oddball_enters_stage2_on_illuminated_group(self, make_speller):
        speller = make_speller(seed=4)
        group = speller.next_stimulus()
        assert len(group) == 6
        events = speller.step(True, 0.95)
        assert events == []
        assert speller.mode == STAGE2
        assert speller._symbols == group
        # stage-2 first pass illuminates in stage-1 draw order
        assert speller.next_stimulus() == (group[0],)


class TestStage2:
    def select_one(self, speller, target_in_group_pos=None):
        group = speller.next_stimulus()
        speller.step(True, 0.95)
        return group

    def test_selection_and_pause(self, make_speller):
        speller = make_speller(seed=5)
        group = self.select_one(speller)
        target = group[2]
        for expected in group:
            stimulus = speller.next_stimulus()
            assert stimulus == (expected,)
            if expected == target:
                break
            speller.step(False, 0.05)
        events = speller.step(True, 0.97)
        assert len(events) == 1
        event = events[0]
        assert event.symbol == target
        assert event.mechanism == STAGE2
        assert event.pause_s == 3.0
        assert speller.prompt == target
        # the mode after the pause is entered at selection time
        resumed = COMPLETION if completion_candidates(speller.dictionary, target) else STAGE1
        assert speller.mode == resumed
        speller.advance_clock(400.0, events, 0.0)
        assert event.time_s is not None

    def test_three_empty_cycles_fall_back_to_stage1(self, make_speller):
        speller = make_speller(seed=6)
        self.select_one(speller)
        for _ in range(18):
            assert speller.mode == STAGE2
            speller.next_stimulus()
            speller.step(False, 0.05)
        assert speller.mode == STAGE1

    def test_redraws_cover_the_group(self, make_speller):
        speller = make_speller(seed=7)
        group = self.select_one(speller)
        seen = []
        for _ in range(12):
            seen.append(speller.next_stimulus()[0])
            speller.step(False, 0.05)
        assert sorted(seen[:6]) == sorted(group)
        assert sorted(seen[6:12]) == sorted(group)


class TestCompletionMode:
    def type_symbol(self, speller, symbol):
        """Drive with perfect decisions until symbol is selected."""
        while True:
            stimulus = speller.next_stimulus()
            is_odd = symbol in stimulus
            events = speller.step(is_odd, 1.0 if is_odd else 0.0)
            speller.advance_clock(400.0, events, 0.0)
            if events:
                assert events[0].symbol == symbol
                return events[0]

    def test_triggers_after_word_start(self, make_speller):
        speller = make_speller(seed=8)
        event = self.type_symbol(speller, "Q")
        assert event.pause_s == 3.0
        assert speller.mode == COMPLETION
        stimulus = speller.next_stimulus()
        assert speller.mode == COMPLETION
        assert stimulus == ("U",)

    def test_completion_selection_mechanism(self, make_speller):
        speller = make_speller(seed=9)
        self.type_symbol(speller, "Q")
        event = self.type_symbol(speller, "U")
        assert event.mechanism == COMPLETION
        assert speller.prompt == "QU"

    def test_three_failed_cycles_default_to_stage1(self, make_speller):
        speller = make_speller(seed=10)
        self.type_symbol(speller, "Q")
        speller.next_stimulus()
        n_candidates = 1  # QUICK is the only bundled Q word
        for i in range(3 * n_candidates):
            assert speller.mode == COMPLETION
            if i > 0:
                speller.next_stimulus()
            speller.step(False, 0.0)
        assert speller.mode == STAGE1

    def test_no_completion_when_too_many_continuations(self, make_speller):
        # after THE there are six distinct continuations in the bundled list
        speller = make_speller(seed=11)
        for ch in "THE":
            self.type_symbol(speller, ch)
        speller.next_stimulus()
        assert speller.mode == STAGE1


class TestIntegration:
    def force_trial(self, speller, stimulus, posterior):
        speller._pending = tuple(stimulus)
        return speller.step(False, posterior)

    def companions(self, pool, k, n=5):
        return [pool[(k * n + j) % len(pool)] for j in range(n)]

    def test_fresh_state_uniform(self, make_speller):
        speller = make_speller()
        assert np.all(speller._log_acc == math.log(1 / 42))
        assert speller._streak == 0

    def test_hand_traced_accumulator(self, make_speller):
        speller = make_speller(seed=12)
        symbols = SYMBOLS
        pool = [s for s in symbols if s != "E"]
        stimulus = ("E", *self.companions(pool, 0))
        speller.update_integration(stimulus, 0.9)
        # first trial leaves E tied with its five companions
        assert speller._streak == 0
        lit = np.array([s in stimulus for s in symbols])
        want = np.where(lit, math.log(1 / 42) + math.log(0.9), math.log(1 / 42) + math.log(1 - 0.9))
        assert np.array_equal(speller._log_acc, want)
        speller.update_integration(("E", *self.companions(pool, 1)), 0.9)
        assert speller._streak == 1

    def test_ten_trial_streak_selects_by_integration(self, make_speller):
        speller = make_speller(seed=13)
        pool = [s for s in SYMBOLS if s != "E"]
        selected = None
        for k in range(50):
            events = self.force_trial(speller, ("E", *self.companions(pool, k)), 0.9)
            if events:
                selected = events[0]
                break
        assert selected is not None
        # tie on trial 1, streak builds from trial 2, fires at streak 10
        assert k == 10
        assert selected.symbol == "E"
        assert selected.mechanism == INTEGRATION
        assert np.all(speller._log_acc == math.log(1 / 42))
        assert speller._streak == 0

    def test_argmax_change_restarts_streak(self, make_speller):
        speller = make_speller(seed=14)
        pool = [s for s in SYMBOLS if s not in ("E", "X")]
        for k in range(3):
            self.force_trial(speller, ("E", *self.companions(pool, k)), 0.9)
        assert speller._streak == 2
        for k in range(3, 7):
            self.force_trial(speller, ("X", *self.companions(pool, k)), 0.95)
        # X overtakes E at some point; the streak belongs to X and restarted
        assert speller._streak < 5
        acc = speller._log_acc
        symbols = SYMBOLS
        assert acc[symbols.index("X")] > acc[symbols.index("E")]

    def test_posterior_validation(self, make_speller):
        speller = make_speller()
        with pytest.raises(ValueError):
            speller.update_integration(("A",), 1.5)
        with pytest.raises(ValueError):
            speller.update_integration(("A",), float("nan"))
        with pytest.raises(ValueError):
            speller.update_integration(("??",), 0.5)

    def test_rejected_input_leaves_the_state_unchanged(self, make_speller):
        speller = make_speller()
        for k, stimulus in enumerate((("E", "T", "A"), ("E",), ("T", "O"))):
            speller.update_integration(stimulus, (0.9, 0.8, 0.7)[k])
        assert speller._streak == 2
        before = (speller._log_acc.tobytes(), speller._streak, speller._streak_idx)
        # the unknown symbol comes after a known one: no symbol may be added to
        for stimulus, posterior in (
            (("E", "??"), 0.5),
            (("E",), 1.5),
            (("E",), -1e-300),
            (("E",), float("nan")),
            (("E",), float("inf")),
        ):
            with pytest.raises(ValueError):
                speller.update_integration(stimulus, posterior)
            assert (speller._log_acc.tobytes(), speller._streak, speller._streak_idx) == before

    def test_reset_after_any_selection(self, make_speller):
        speller = make_speller(seed=15)
        group = speller.next_stimulus()
        speller.step(True, 0.9)
        stim = speller.next_stimulus()
        events = speller.step(True, 0.9)
        assert events and events[0].symbol == stim[0]
        assert np.all(speller._log_acc == math.log(1 / 42))


class TestFrequencyTableSymbols:
    """The speller takes the tables that training takes, and rejects the
    rest with training's message."""

    @staticmethod
    def rejection(make_speller, frequency):
        with pytest.raises(ValueError) as speller_error:
            make_speller(frequency=frequency)
        with pytest.raises(ValueError) as training_error:
            run_training(ProtocolConfig(), subject_preset("oracle"), np.random.default_rng(0), frequency)
        assert str(speller_error.value) == str(training_error.value)
        return str(speller_error.value)

    def test_the_speller_draws_by_the_masses_training_draws_by(self, make_speller, frequency):
        speller = make_speller(frequency=frequency)
        assert speller.frequency.symbols == frequency.symbols
        assert speller.frequency.masses.tobytes() == frequency.masses.tobytes()

    def test_an_extra_symbol_is_rejected(self, make_speller, frequency):
        table = frequency
        extra = FrequencyTable(table.symbols + ("#",), np.append(table.probs * (1.0 - 1e-3), 1e-3))
        assert self.rejection(make_speller, extra) == (
            "frequency table must hold exactly the 42 speller symbols: missing [], extra ['#']"
        )

    def test_a_missing_symbol_is_rejected(self, make_speller, frequency):
        table = frequency
        keep = [i for i, s in enumerate(table.symbols) if s not in "QZ"]
        probs = table.probs[keep] / table.probs[keep].sum()
        missing = FrequencyTable(tuple(table.symbols[i] for i in keep), probs)
        assert self.rejection(make_speller, missing).endswith("missing ['Q', 'Z'], extra []")


class TestClock:
    def test_zero_trials_zero_time(self, make_speller):
        speller = make_speller()
        assert speller.clock_s == 0.0

    def test_accounting_identity_exact(self, make_speller):
        speller = make_speller(seed=16)
        rng = np.random.default_rng(99)
        n_pauses = 0
        for _ in range(500):
            if speller.mode == EXITED:
                break
            speller.next_stimulus()
            events = speller.step(bool(rng.uniform() < 0.2), float(rng.uniform()))
            speller.advance_clock(160.0, events, 12.0)
            n_pauses += sum(1 for ev in events if ev.pause_s > 0)
        expected = speller.n_trials * (160.0 + 12.0) + n_pauses * 3000.0
        assert speller.trial_time_ms + speller.pause_time_ms == expected

    def test_trial_rate_with_overhead(self):
        rate = 1000.0 / (160.0 + 12.0)
        assert 5.81 <= rate <= 5.86

    def test_validation(self, make_speller):
        speller = make_speller()
        speller.next_stimulus()
        events = speller.step(False, 0.5)
        with pytest.raises(ValueError):
            speller.advance_clock(0.0, events, 0.0)
        with pytest.raises(ValueError):
            speller.advance_clock(100.0, events, -1.0)
        with pytest.raises(ValueError, match="iti must be positive and finite, got nan"):
            speller.advance_clock(math.nan, events, 0.0)
        with pytest.raises(ValueError, match="iti must be positive and finite, got inf"):
            speller.advance_clock(math.inf, events, 0.0)
        with pytest.raises(ValueError, match="overhead must be nonnegative and finite, got inf"):
            speller.advance_clock(160.0, events, math.inf)
        with pytest.raises(ValueError, match="overhead must be nonnegative and finite, got nan"):
            speller.advance_clock(160.0, events, math.nan)
        assert speller.n_trials == 0 and speller.clock_s == 0.0
        for pause_s in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"pause must be nonnegative and finite, got {pause_s!r}"):
                make_speller(pause_s=pause_s)
            # a caller-built event's pause is checked too, before the clock moves
            bad = [SelectionEvent("A", STAGE2, pause_s)]
            with pytest.raises(ValueError, match=f"pause must be nonnegative and finite, got {pause_s!r}"):
                speller.advance_clock(160.0, bad, 0.0)
            assert bad[0].time_s is None
        with pytest.raises(ValueError, match="pause must be nonnegative and finite, got -5.0"):
            speller.advance_clock(160.0, [SelectionEvent("A", STAGE2, -5.0)], 0.0)
        assert speller.n_trials == 0 and speller.clock_s == 0.0 and speller.pause_time_ms == 0.0


class TestOracleBenchmark:
    def test_types_the_benchmark_sentence(self, make_speller):
        speller = make_speller(seed=17)
        events = drive_oracle(speller, BENCHMARK)
        assert speller.mode == EXITED
        assert speller.prompt == BENCHMARK
        assert len(events) == 44
        # every selected symbol was illuminated on its trigger trial
        for event, stimulus in events:
            assert event.mechanism in (STAGE2, COMPLETION)
            assert event.symbol in stimulus
        # final exit selection is exempt from the pause
        assert events[-1][0].symbol == EXIT
        assert events[-1][0].pause_s == 0.0
        assert speller.pause_time_ms == 43 * 3000.0

    def test_oracle_uses_completion_mode(self, make_speller):
        speller = make_speller(seed=18)
        events = drive_oracle(speller, BENCHMARK)
        mechanisms = {ev.mechanism for ev, _ in events}
        assert COMPLETION in mechanisms and STAGE2 in mechanisms

    def test_deterministic_given_seed(self, make_speller):
        transcripts = []
        for _ in range(2):
            speller = make_speller(seed=19)
            events = drive_oracle(speller, BENCHMARK)
            transcripts.append(
                (
                    speller.n_trials,
                    speller.clock_s,
                    tuple((ev.symbol, ev.mechanism, ev.time_s) for ev, _ in events),
                )
            )
        assert transcripts[0] == transcripts[1]


class TestStateMachineGuards:
    def test_step_after_exit_rejected(self, make_speller):
        speller = make_speller(seed=20)
        drive_oracle(speller, BENCHMARK)
        with pytest.raises(RuntimeError):
            speller.next_stimulus()
        with pytest.raises(RuntimeError):
            speller.step(False, 0.5)

    def test_step_without_stimulus_rejected(self, make_speller):
        speller = make_speller()
        with pytest.raises(RuntimeError):
            speller.step(False, 0.5)

    def test_next_stimulus_idempotent_until_step(self, make_speller):
        speller = make_speller(seed=21)
        first = speller.next_stimulus()
        assert speller.next_stimulus() == first
        speller.step(False, 0.1)
        assert speller.next_stimulus() != () # consumed, a new trial begins

    def test_noisy_drive_invariants(self, make_speller):
        speller = make_speller(seed=22)
        rng = np.random.default_rng(7)
        symbols = set(SYMBOLS)
        for _ in range(3000):
            if speller.mode == EXITED:
                break
            stimulus = speller.next_stimulus()
            assert set(stimulus) <= symbols
            mode_before = speller.mode
            if mode_before == STAGE2:
                assert len(speller._symbols) == 6
            events = speller.step(bool(rng.uniform() < 0.25), float(rng.uniform()))
            speller.advance_clock(240.0, events, 12.0)
            assert 0 <= speller._streak <= 10
            for event in events:
                assert event.pause_s in (0.0, 3.0)
                if event.mechanism != INTEGRATION:
                    assert event.symbol in stimulus
                assert set(speller.prompt) <= symbols
            if events and speller.mode != EXITED:
                assert events[0].pause_s == 3.0
                resumed = COMPLETION if completion_candidates(speller.dictionary, speller.prompt) else STAGE1
                assert speller.mode == resumed


class TestSessionLog:
    def test_round_trip(self, tmp_path):
        log = SessionLog(meta={"iti_ms": 160, "subject": "oracle"})
        log.trial(0.16, STAGE1, ("A", "B"), "non-oddball", 0.12)
        event = SelectionEvent(symbol="A", mechanism=STAGE2, pause_s=3.0, time_s=0.6)
        log.selection(event)
        path = tmp_path / "session.jsonl"
        log.write(path)
        loaded = load_session_log(path)
        assert loaded.meta == {"iti_ms": 160, "subject": "oracle"}
        assert loaded.records == log.records

    def test_write_equals_one_dumps_per_record(self, tmp_path):
        # the file the writer gave when it called json.dumps on every line
        log = SessionLog(meta={"iti_ms": 160.0, "sentence": "HI*", "subject": "oracle", "seed": 0})
        log.trial(0.0, STAGE1, ("A", "B", "C", "D", "E", "F"), "oddball", 0.9999999999)
        log.trial(0.172, STAGE2, ("A",), "non-oddball", 1e-300)
        log.selection(SelectionEvent(symbol="H", mechanism=STAGE2, pause_s=3.0, time_s=0.344))
        log.selection(SelectionEvent(symbol="*", mechanism=INTEGRATION, pause_s=0.0))
        log.trial(3.344, COMPLETION, ("I",), "oddball", 0.5)
        path = tmp_path / "session.jsonl"
        log.write(path)
        header = {"record": "header", "schema_version": 1, "meta": log.meta}
        want = "".join(json.dumps(r, sort_keys=True) + "\n" for r in [header, *log.records])
        assert path.read_text(encoding="utf-8") == want
        assert log.records[3]["t_s"] is None

    # symbols json must escape, and floats at the edges of repr: the smallest
    # subnormal, a tiny normal, negative zero, the switch to exponent form,
    # and a sum that does not round to its decimal
    ODD_SYMBOLS = ('"', "\\", "é", "€", "\n", "A")
    ODD_FLOATS = (5e-324, 1e-300, -0.0, 1e16, 0.1 + 0.2, 0.0, 1.0, 123456.789)

    @pytest.mark.parametrize("value", ODD_FLOATS)
    def test_lines_equal_json_dumps(self, tmp_path, value):
        log = SessionLog(meta={"sentence": "é\"*"})
        log.trial(value, "Stage\\1", self.ODD_SYMBOLS, '"odd"', value)
        log.trial(np.float64(value), STAGE2, (), "non-oddball", np.float64(value))
        log.selection(SelectionEvent(symbol="é", mechanism='"', pause_s=value, time_s=value))
        log.selection(SelectionEvent(symbol="\\", mechanism=INTEGRATION, pause_s=value))
        want = [
            {"record": "trial", "t_s": value, "mode": "Stage\\1", "illuminated": list(self.ODD_SYMBOLS),
             "decision": '"odd"', "posterior": value},
            {"record": "trial", "t_s": value, "mode": STAGE2, "illuminated": [],
             "decision": "non-oddball", "posterior": value},
            {"record": "selection", "t_s": value, "symbol": "é", "mechanism": '"', "pause_s": value},
            {"record": "selection", "t_s": None, "symbol": "\\", "mechanism": INTEGRATION, "pause_s": value},
        ]
        path = tmp_path / "session.jsonl"
        log.write(path)
        header = {"record": "header", "schema_version": 1, "meta": log.meta}
        lines = [json.dumps(r, sort_keys=True) for r in [header, *want]]
        assert path.read_bytes() == "".join(line + "\n" for line in lines).encode("ascii")
        # the decoded records keep the value's sign and every bit
        for record in log.records:
            number = record["posterior"] if record["record"] == "trial" else record["pause_s"]
            assert number == value and math.copysign(1.0, number) == math.copysign(1.0, value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_raise(self, bad):
        log = SessionLog({})
        with pytest.raises(ValueError, match=f"t_s must be finite, got {bad!r}"):
            log.trial(bad, STAGE1, ("A",), "oddball", 0.5)
        with pytest.raises(ValueError, match=f"posterior must be finite, got {bad!r}"):
            log.trial(0.0, STAGE1, ("A",), "oddball", np.float64(bad))
        with pytest.raises(ValueError, match=f"t_s must be finite, got {bad!r}"):
            log.selection(SelectionEvent(symbol="A", mechanism=STAGE2, pause_s=3.0, time_s=bad))
        with pytest.raises(ValueError, match=f"pause_s must be finite, got {bad!r}"):
            log.selection(SelectionEvent(symbol="A", mechanism=STAGE2, pause_s=bad, time_s=1.0))
        assert log.records == []

    def test_loaded_log_writes_the_same_bytes(self, tmp_path):
        log = SessionLog(meta={"seed": 3})
        log.trial(0.0, STAGE1, ("A", "B"), "oddball", 0.75)
        log.selection(SelectionEvent(symbol="A", mechanism=STAGE2, pause_s=3.0, time_s=0.172))
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        log.write(first)
        loaded = load_session_log(first)
        loaded.write(second)
        assert second.read_bytes() == first.read_bytes()
        assert loaded.selections() == log.selections() == [log.records[1]]

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"record": "trial"}) + "\n")
        with pytest.raises(ValueError):
            load_session_log(path)

    @pytest.mark.parametrize("first", ["[]", ""])
    def test_header_must_be_an_object(self, tmp_path, first):
        path = tmp_path / "bad.jsonl"
        path.write_text(first + "\n")
        with pytest.raises(ValueError, match="must start with a header record"):
            load_session_log(path)

    def test_every_line_must_parse(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"record": "header", "schema_version": 1, "meta": {}}\n{"record": "tri\n')
        with pytest.raises(ValueError):
            load_session_log(path)

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps({"record": "header", "schema_version": 99}) + "\n")
        with pytest.raises(ValueError):
            load_session_log(path)


# ---------------------------------------------------------------------------
# the one-add evidence update and the prefix memo against the code they replaced


def _reference_update(log_acc, streak, streak_idx, index, stimulus, posterior):
    """update_integration as it was: boolean masks and flatnonzero."""
    p = min(max(posterior, 1e-12), 1.0 - 1e-12)
    lit = np.zeros(log_acc.size, dtype=bool)
    for symbol in stimulus:
        lit[index[symbol]] = True
    log_acc[lit] += math.log(p)
    log_acc[~lit] += math.log(1.0 - p)
    top = log_acc.max()
    winners = np.flatnonzero(log_acc == top)
    if winners.size == 1:
        idx = int(winners[0])
        return streak + 1 if idx == streak_idx else 1, idx
    return 0, None


def _update_cases(n, seed):
    """Stimuli of 0-42 symbols (six-symbol groups most often) and posteriors
    that include 0, 1, the clamps and values beyond them, and 0.5, where lit
    and unlit symbols gain the same and argmax ties persist."""
    rng = np.random.default_rng(seed)
    symbols = SYMBOLS
    special = [0.0, 1.0, 0.5, 1e-12, 1.0 - 1e-12, 5e-13, 1e-300, 1.0 - 1e-13, math.nextafter(1.0, 0.0)]
    for k in range(n):
        size = int(rng.choice([0, 1, 6, 6, 6, 2, 42]))
        stimulus = tuple(symbols[int(i)] for i in rng.choice(42, size=size, replace=False))
        posterior = special[k % len(special)] if k % 3 == 0 else float(rng.uniform())
        yield stimulus, posterior


class TestIntegrationEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_update_equals_the_mask_version_bitwise(self, make_speller, seed):
        speller = make_speller(seed=seed)
        acc = speller._log_acc.copy()
        streak, streak_idx = 0, None
        n_ties = n_streaks = 0
        for k, (stimulus, posterior) in enumerate(_update_cases(3000, seed)):
            if k % 500 == 0:
                # a fresh, fully tied accumulator
                speller._reset_integration()
                acc.fill(speller._log_reset)
                streak, streak_idx = 0, None
            speller.update_integration(stimulus, posterior)
            streak, streak_idx = _reference_update(
                acc, streak, streak_idx, speller._index, stimulus, posterior
            )
            assert speller._log_acc.tobytes() == acc.tobytes()
            assert (speller._streak, speller._streak_idx) == (streak, streak_idx)
            n_ties += streak_idx is None
            n_streaks += streak >= 2
        assert n_ties > 50 and n_streaks > 50

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_update_equals_the_full_step_version_bitwise(self, make_speller, seed):
        # the reference builds each trial's step with np.full and counts
        # ties with count_nonzero; the speller refills one buffer and finds
        # the maximum from both ends
        speller = make_speller(seed=seed)
        ref = _ReferenceSpeller(np.random.default_rng(seed))
        for k, (stimulus, posterior) in enumerate(_update_cases(3000, seed + 10)):
            if k % 500 == 0:
                speller._reset_integration()
                ref._reset_integration()
            speller.update_integration(stimulus, posterior)
            ref.update_integration(stimulus, posterior)
            assert speller._log_acc.tobytes() == ref._log_acc.tobytes()
            assert (speller._streak, speller._streak_idx) == (ref._streak, ref._streak_idx)
            assert type(speller._streak_idx) is type(ref._streak_idx)


class TestDictionaryMemo:
    @staticmethod
    def scan(dictionary, prefix):
        """Dictionary.lookup as it was: one linear scan per call."""
        prefix = prefix.upper()
        chars = {w[len(prefix)] for w in dictionary.words if w.startswith(prefix) and len(w) > len(prefix)}
        return tuple(sorted(chars))

    def test_memo_equals_the_linear_scan(self):
        dictionary = default_dictionary()
        prefixes = {w[:k] for w in dictionary.words for k in range(len(w) + 1)}
        prefixes |= {p.lower() for p in list(prefixes)[:500]} | {"Th", "qU"}
        prefixes |= {"QX", "ZZZZ", "XQJ", "THEQ", "qzx", "", "A" * 40}
        for _ in range(2):  # the second pass reads the memo
            for prefix in sorted(prefixes):
                assert dictionary.lookup(prefix) == self.scan(dictionary, prefix)
        assert dictionary.lookup("QX") == ()
        assert dictionary.lookup("th") == dictionary.lookup("TH") != ()


# ---------------------------------------------------------------------------
# one single-symbol pass, and no pause mode, against the speller they replaced

PAUSED = "Paused"
_CLAMP = 1e-12
_STREAK_TARGET = 10
_STAGE2_MAX_CYCLES = 3
_COMPLETION_MAX_CYCLES = 3


class _ReferenceSpeller:
    """Speller as it was, with a pause mode and separate stage-2 and
    completion scans. Verbatim but for its name, form_cycle, which now
    returns the groups themselves, and the alphabet's API: it indexes SYMBOLS
    and draws from frequency tables, the full one as given. Selection state machine over the default
    42-symbol character set.

    Drive it one trial at a time:

        stimulus = speller.next_stimulus()
        ... synthesize + classify the trial ...
        events = speller.step(is_oddball, posterior)
        speller.advance_clock(iti_ms, events, overhead_ms)
    """

    def __init__(
        self,
        rng: np.random.Generator,
        frequency: FrequencyTable | None = None,
        dictionary: Dictionary | None = None,
        *,
        pause_s: float = 3.0,
    ) -> None:
        if pause_s < 0.0:
            raise ValueError("pause must be nonnegative")
        self.rng = rng
        self.frequency = frequency if frequency is not None else default_frequency_table()
        self.dictionary = dictionary if dictionary is not None else default_dictionary()
        self.pause_s = pause_s

        self._index = {s: i for i, s in enumerate(SYMBOLS)}
        self._log_reset = math.log(1.0 / len(SYMBOLS))

        self.mode = STAGE1
        self.prompt = ""
        self.n_trials = 0
        self._trial_ms = 0.0
        self._pause_ms = 0.0

        self._cycle = None
        self._cycle_pos = 0
        self._group: tuple[str, ...] | None = None
        self._stage2_order: tuple[str, ...] = ()
        self._stage2_pos = 0
        self._stage2_cycles = 0
        self._stage2_table = None
        self._candidates: tuple[str, ...] = ()
        self._completion_order: tuple[str, ...] = ()
        self._completion_pos = 0
        self._completion_cycles = 0
        self._resume = STAGE1
        self._resume_candidates: tuple[str, ...] = ()
        self._pending: tuple[str, ...] | None = None

        self._log_acc = np.full(len(SYMBOLS), self._log_reset)
        self._streak = 0
        self._streak_idx: int | None = None

    # -- read-only views ----------------------------------------------------

    @property
    def clock_ms(self) -> float:
        return self._trial_ms + self._pause_ms

    @property
    def clock_s(self) -> float:
        return self.clock_ms / 1000.0

    @property
    def trial_time_ms(self) -> float:
        return self._trial_ms

    @property
    def pause_time_ms(self) -> float:
        return self._pause_ms

    # -- the trial loop -----------------------------------------------------

    def next_stimulus(self) -> tuple[str, ...]:
        """Symbols illuminated on the upcoming trial.

        Resolves a pending pause first: the mode that follows the pause was
        fixed when the selection happened. Idempotent until step() consumes
        the stimulus."""
        if self.mode == EXITED:
            raise RuntimeError("session has exited")
        if self._pending is not None:
            return self._pending
        if self.mode == PAUSED:
            if self._resume == COMPLETION:
                self._enter_completion(self._resume_candidates)
            else:
                self.mode = STAGE1
                self._cycle = None
        if self.mode == STAGE1:
            if self._cycle is None or self._cycle_pos >= len(self._cycle):
                self._cycle = form_cycle(draw_permutation(self.frequency, self.rng))
                self._cycle_pos = 0
            stimulus = self._cycle[self._cycle_pos]
        elif self.mode == STAGE2:
            stimulus = (self._stage2_order[self._stage2_pos],)
        elif self.mode == COMPLETION:
            stimulus = (self._completion_order[self._completion_pos],)
        else:  # pragma: no cover - modes are exhaustive
            raise RuntimeError(f"cannot illuminate in mode {self.mode}")
        self._pending = stimulus
        return stimulus

    def step(self, is_oddball: bool, posterior: float) -> list[SelectionEvent]:
        """Consume one classified trial; returns selection events (0 or 1)."""
        if self.mode == EXITED:
            raise RuntimeError("session has exited")
        if self._pending is None:
            raise RuntimeError("call next_stimulus() before step()")
        stimulus = self._pending
        self._pending = None

        self.update_integration(stimulus, posterior)

        selected: str | None = None
        mechanism = ""
        if self.mode == STAGE1:
            if is_oddball:
                self._enter_stage2(stimulus)
            else:
                self._cycle_pos += 1
        elif self.mode == STAGE2:
            if is_oddball:
                selected, mechanism = stimulus[0], STAGE2
            else:
                self._stage2_pos += 1
                if self._stage2_pos >= len(self._stage2_order):
                    self._stage2_cycles += 1
                    if self._stage2_cycles >= _STAGE2_MAX_CYCLES:
                        self.mode = STAGE1
                        self._cycle = None
                    else:
                        if self._stage2_table is None:
                            self._stage2_table = self.frequency.restrict(self._group)
                        self._stage2_order = draw_permutation(self._stage2_table, self.rng)
                        self._stage2_pos = 0
        elif self.mode == COMPLETION:
            if is_oddball:
                selected, mechanism = stimulus[0], COMPLETION
            else:
                self._completion_pos += 1
                if self._completion_pos >= len(self._completion_order):
                    self._completion_cycles += 1
                    if self._completion_cycles >= _COMPLETION_MAX_CYCLES:
                        self.mode = STAGE1
                        self._cycle = None
                    else:
                        self._completion_order = self._permute_candidates()
                        self._completion_pos = 0
        else:
            raise RuntimeError(f"cannot step in mode {self.mode}")

        # integrated evidence can select outright, skipping stage 2; a
        # same-trial single-trial selection takes precedence
        if selected is None and self._streak >= _STREAK_TARGET:
            idx = int(np.argmax(self._log_acc))
            selected, mechanism = SYMBOLS[idx], INTEGRATION

        events: list[SelectionEvent] = []
        if selected is not None:
            self.prompt = apply_selection(self.prompt, selected)
            self._reset_integration()
            if selected == EXIT:
                self.mode = EXITED
                pause = 0.0
            else:
                pause = self.pause_s
                candidates = completion_candidates(self.dictionary, self.prompt)
                self._resume = COMPLETION if candidates else STAGE1
                self._resume_candidates = candidates
                self.mode = PAUSED
            events.append(SelectionEvent(symbol=selected, mechanism=mechanism, pause_s=pause))
        return events

    def advance_clock(self, iti_ms: float, events: list[SelectionEvent], overhead_ms: float = 0.0) -> None:
        """Account one trial's time plus any selection pauses."""
        if iti_ms <= 0.0:
            raise ValueError("iti must be positive")
        if overhead_ms < 0.0:
            raise ValueError("overhead must be nonnegative")
        self.n_trials += 1
        self._trial_ms += iti_ms + overhead_ms
        for event in events:
            event.time_s = self.clock_s
            self._pause_ms += event.pause_s * 1000.0

    # -- internals ----------------------------------------------------------

    def _enter_stage2(self, group: tuple[str, ...]) -> None:
        self._group = group
        # first pass keeps the stage-1 draw order; later passes redraw with
        # the same frequency bias restricted to the group, from a table built
        # on the first redraw (most entries select or leave before one)
        self._stage2_order = group
        self._stage2_pos = 0
        self._stage2_cycles = 0
        self._stage2_table = None
        self.mode = STAGE2

    def _enter_completion(self, candidates: tuple[str, ...]) -> None:
        self._candidates = candidates
        self._completion_order = self._permute_candidates()
        self._completion_pos = 0
        self._completion_cycles = 0
        self.mode = COMPLETION

    def _permute_candidates(self) -> tuple[str, ...]:
        order = self.rng.permutation(len(self._candidates))
        return tuple(self._candidates[int(i)] for i in order)

    def update_integration(self, stimulus: tuple[str, ...], posterior: float) -> None:
        """Fold one trial's posterior into the per-symbol evidence sums.

        Illuminated symbols gain log(p), the rest log(1 - p), both clamped
        away from log(0); only differences matter for the argmax. step()
        calls this on every trial, whatever the mode."""
        if not (math.isfinite(posterior) and 0.0 <= posterior <= 1.0):
            raise ValueError(f"posterior must lie in [0, 1], got {posterior!r}")
        p = min(max(posterior, _CLAMP), 1.0 - _CLAMP)
        for symbol in stimulus:
            if symbol not in self._index:
                raise ValueError(f"unknown symbol {symbol!r}")
        # one add per symbol: log(p) where lit, log(1 - p) elsewhere
        step = np.full(self._log_acc.size, math.log(1.0 - p))
        step[[self._index[symbol] for symbol in stimulus]] = math.log(p)
        acc = self._log_acc
        acc += step
        idx = int(acc.argmax())
        if np.count_nonzero(acc == acc[idx]) == 1:
            self._streak = self._streak + 1 if idx == self._streak_idx else 1
            self._streak_idx = idx
        else:
            self._streak = 0
            self._streak_idx = None

    def _reset_integration(self) -> None:
        self._log_acc.fill(self._log_reset)
        self._streak = 0
        self._streak_idx = None


def _clip(x):
    return min(max(x, 0.0), 1.0)


def _drive_pair(seed, frequency, dictionary, tally):
    """Drive the reference and the new speller with one random stream of
    decisions and posteriors, comparing them after every call.

    Even seeds decide at random; odd seeds attend a target sentence (the
    next character, backspace after an error) with flipped decisions and
    posteriors that lean towards the truth, so integration streaks build."""
    src = np.random.default_rng([seed, 1])
    ref = _ReferenceSpeller(np.random.default_rng(seed), frequency, dictionary)
    new = Speller(np.random.default_rng(seed), frequency, dictionary, pause_s=ProtocolConfig().pause_s)
    attend = seed % 2 == 1
    p_odd = float(src.choice([0.05, 0.2, 0.4, 0.7]))
    p_flip = float(src.choice([0.0, 0.05, 0.3, 0.6]))
    words = dictionary.words
    target = ">".join(words[int(i)] for i in src.integers(len(words), size=int(src.integers(0, 3)))) + EXIT
    for k in range(int(src.integers(20, 300))):
        stimulus = new.next_stimulus()
        assert ref.next_stimulus() == stimulus
        assert ref.mode == new.mode
        assert ref.rng.bit_generator.state == new.rng.bit_generator.state

        if attend:
            on_track = target.startswith(new.prompt) and len(new.prompt) < len(target)
            truth = (target[len(new.prompt)] if on_track else BACKSPACE) in stimulus
            decision = truth != bool(src.random() < p_flip)
            posterior = _clip(float(src.normal(0.8 if truth else 0.2, 0.2)))
        else:
            decision = bool(src.random() < p_odd)
            posterior = float(src.random())
        if k % 13 == 0:
            posterior = (0.0, 1.0, 0.5)[k % 3]

        mode_before = new.mode
        ref_events = ref.step(decision, posterior)
        events = new.step(decision, posterior)
        ref.advance_clock(160.0, ref_events, 12.0)
        new.advance_clock(160.0, events, 12.0)
        assert [(e.symbol, e.mechanism, e.pause_s, e.time_s) for e in events] == [
            (e.symbol, e.mechanism, e.pause_s, e.time_s) for e in ref_events
        ]
        assert new.prompt == ref.prompt
        assert new.clock_s == ref.clock_s
        # the reference pauses; the new speller is already in the mode the
        # reference resumes into
        assert new.mode == (ref._resume if ref.mode == PAUSED else ref.mode)

        for event in events:
            tally[event.mechanism] += 1
            if event.symbol in (BACKSPACE, EXIT):
                tally[event.symbol] += 1
            tally["completion entry"] += new.mode == COMPLETION
        if not events and mode_before != STAGE1 and new.mode == STAGE1:
            tally[f"{mode_before} passes exhausted"] += 1
        if new.mode == EXITED:
            break


class TestSinglePassEquivalence:
    @pytest.mark.parametrize("block", range(4))
    def test_same_stimuli_draws_events_and_prompts_as_the_reference(self, block, frequency, dictionary):
        tally = collections.Counter()
        for seed in range(500 * block, 500 * (block + 1)):
            _drive_pair(seed, frequency, dictionary, tally)
        for key in (STAGE2, COMPLETION, INTEGRATION, BACKSPACE, EXIT, "completion entry",
                    f"{STAGE2} passes exhausted", f"{COMPLETION} passes exhausted"):
            assert tally[key] >= 20, (key, tally)


# ---------------------------------------------------------------------------
# where the scan draws: a stage-1 cycle at the first stimulus that needs it,
# a stage-2 pass in step() as soon as the previous one ends unanswered


def _scripted_pair(seed, frequency, dictionary):
    return (
        _ReferenceSpeller(np.random.default_rng(seed), frequency, dictionary),
        Speller(np.random.default_rng(seed), frequency, dictionary, pause_s=ProtocolConfig().pause_s),
    )


def _trial(ref, new, decision, posterior):
    """One trial on both spellers, compared after every call: stimuli,
    events and the generator state. Returns the stimulus, the events and
    the generator state step() started from. Neither script enters
    completion, which the reference draws one call later, after its pause."""
    stimulus = new.next_stimulus()
    assert ref.next_stimulus() == stimulus
    assert ref.rng.bit_generator.state == new.rng.bit_generator.state
    before = new.rng.bit_generator.state
    ref_events = ref.step(decision, posterior)
    events = new.step(decision, posterior)
    assert ref.rng.bit_generator.state == new.rng.bit_generator.state
    ref.advance_clock(160.0, ref_events, 12.0)
    new.advance_clock(160.0, events, 12.0)
    assert [(e.symbol, e.mechanism, e.pause_s, e.time_s) for e in events] == [
        (e.symbol, e.mechanism, e.pause_s, e.time_s) for e in ref_events
    ]
    return stimulus, events, before


def _rng_at(state):
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


class TestScanDrawOrder:
    def test_a_selection_back_to_stage1_draws_at_the_next_stimulus(self, frequency, dictionary):
        ref, new = _scripted_pair(11, frequency, dictionary)
        # at posterior 0.5 every symbol gains the same, so no streak builds
        while new.mode == STAGE1:
            _trial(ref, new, SPACE in new.next_stimulus(), 0.5)
        events = []
        while not events:
            _, events, before = _trial(ref, new, new.next_stimulus() == (SPACE,), 0.5)
        assert [(e.symbol, e.mechanism) for e in events] == [(SPACE, STAGE2)]
        # a word boundary offers no completion: stage 1, and step() drew nothing
        assert new.mode == STAGE1
        assert new.rng.bit_generator.state == before
        rng = _rng_at(before)
        cycle = form_cycle(draw_permutation(frequency, rng))
        stimulus, _, _ = _trial(ref, new, False, 0.5)
        assert stimulus == cycle[0]
        assert new.rng.bit_generator.state == rng.bit_generator.state
        for _ in range(len(cycle) - 1):
            assert _trial(ref, new, False, 0.5)[2] == rng.bit_generator.state
        # the next cycle is drawn at the stimulus after the last group
        assert new.next_stimulus() == form_cycle(draw_permutation(frequency, rng))[0]
        assert new.rng.bit_generator.state == rng.bit_generator.state

    def test_an_integration_selection_ending_a_pass_follows_the_redraw(self, frequency, dictionary):
        ref, new = _scripted_pair(6, frequency, dictionary)
        group, _, _ = _trial(ref, new, True, 0.5)
        assert new.mode == STAGE2 and len(group) == 6
        # the first pass keeps the group's order: its third symbol leads from
        # the third stage-2 trial on, so the streak reaches 10 on the twelfth,
        # the last trial of the second of 3 passes
        target = group[2]
        stimuli = []
        for k in range(1, 13):
            stimulus, events, before = _trial(ref, new, False, 0.9 if new.next_stimulus() == (target,) else 0.5)
            stimuli.append(stimulus)
            if k % 6:
                assert not events and new.rng.bit_generator.state == before
                continue
            # an unanswered pass ends: step() draws the next one first
            rng = _rng_at(before)
            draw_permutation(frequency.restrict(group), rng)
            assert new.rng.bit_generator.state == rng.bit_generator.state
        assert stimuli[:6] == list(zip(group))
        assert [(e.symbol, e.mechanism) for e in events] == [(target, INTEGRATION)]
        # no completion follows the target: stage 1 draws at its first stimulus
        assert new.mode == STAGE1
        for _ in range(30):
            _trial(ref, new, False, 0.5)
