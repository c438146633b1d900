import json
import math
import re
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

from tmqubit.atom import AtomModel
from tmqubit.protocols import PROTOCOLS, build_protocol
from tmqubit.schedule import (
    BuilderConfig,
    Clean530,
    ClockPulse,
    Measure,
    MwPulse,
    ParseError,
    Probe410,
    PulseEvent,
    RfSweep,
    Schedule,
    ScheduleError,
    ScheduleMetadata,
    Wait,
    build_clock_coherence,
    build_cp,
    build_rabi_scan,
    build_ramsey,
    build_shelving_readout,
    build_state_prep,
    parse_sequence,
    serialize_sequence,
)


@pytest.fixture(scope="module")
def model():
    return AtomModel()


class TestParser:
    def test_three_event_oneliner(self):
        s = parse_sequence("mw pi 0deg; wait 80ms; mw pi/2 0deg")
        assert len(s.events) == 3
        assert isinstance(s.events[0], MwPulse)
        assert s.events[0].rabi_frequency * s.events[0].duration == pytest.approx(math.pi)
        assert isinstance(s.events[1], Wait)
        assert s.events[1].duration == pytest.approx(0.08)
        assert s.events[2].rabi_frequency * s.events[2].duration == pytest.approx(math.pi / 2)

    def test_empty_input_valid(self, model):
        s = parse_sequence("")
        assert s.events == ()
        s.validate(model)

    def test_comments_and_blank_lines(self):
        s = parse_sequence("# a comment\n\nwait 1ms  # trailing\n")
        assert len(s.events) == 1

    def test_negative_duration_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_sequence("wait -1ms")
        assert err.value.line == 1

    @pytest.mark.parametrize("field", ["probe_duration", "dead_time"])
    def test_negative_measure_time_is_named(self, model, field):
        # the other field keeps the total duration positive
        with pytest.raises(ParseError, match=f"negative {field} -0.001"):
            parse_sequence(f"measure N4 {field}=-1ms")
        with pytest.raises(ScheduleError, match=f"event 0: negative {field}"):
            Schedule((Measure(**{field: -1e-3}),)).validate(model)

    def test_repeated_measure_label_rejected(self, model):
        with pytest.raises(ScheduleError, match="event 2: measure label 'N4' repeats event 0"):
            parse_sequence("measure N4\nmeasure N3\nmeasure N4 target_f=3", model=model)

    def test_error_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_sequence("wait 1ms\nbogus 2ms\n")
        assert err.value.line == 2

    def test_unknown_argument(self):
        with pytest.raises(ParseError):
            parse_sequence("wait 1ms frobnicate=3")

    def test_units(self):
        s = parse_sequence("mw pi 90deg detuning=2.5kHz\nwait 250us\n")
        assert s.events[0].phase == pytest.approx(math.pi / 2)
        assert s.events[0].detuning == pytest.approx(2500.0)
        assert s.events[1].duration == pytest.approx(250e-6)

    def test_unknown_transition_caught_by_validation(self, model):
        with pytest.raises(ScheduleError):
            parse_sequence("mw pi 0deg transition=g41-g31", model=model)

    @pytest.mark.parametrize("text, word", [
        ("probe 5ms", "'5ms'"),
        ("clean 2ms", "'2ms'"),
        ("rf_sweep 1ms", "'1ms'"),
        ("wait 1ms 2ms", "'2ms'"),
        ("measure N4 extra", "'extra'"),
        ("mw pi 0deg 1ms", "'1ms'"),
        ("probe target_f=3.5", "'target_f=3.5'"),
        ("measure N4 target_f=4.9", "'target_f=4.9'"),
        ("clean target_f=4ms", "'target_f=4ms'"),
        ("mw pi 0deg phase=1", "'phase=1'"),
        ("wait 1ms duration=2ms", "'duration=2ms'"),
        ("measure N4 label=N3", "'label=N3'"),
        ("probe duration=1ms duration=2ms", "'duration=2ms'"),
        ("clock pi duration=1ms", "'duration=1ms'"),
        ("mw pi 0deg detuning=xyz", "'detuning=xyz'"),
        ("mw pi 0deg detuning=5parsec", "'detuning=5parsec'"),
        ("wait 1ms frobnicate=3", "'frobnicate=3'"),
        ("measure N4 duration=1ms", "'duration=1ms'"),
        ("wait 1ms\n@name a\n@name b", "'@name b'"),
    ])
    def test_word_that_sets_nothing_is_named(self, text, word):
        with pytest.raises(ParseError, match=re.escape(word)) as err:
            parse_sequence(text)
        assert err.value.line == text.count("\n") + 1
        assert "column" not in str(err.value)

    def test_pragmas(self):
        s = parse_sequence("@name demo\n@bias_field 100mG\nwait 1ms\n")
        assert s.metadata.name == "demo"
        assert s.metadata.bias_field == pytest.approx(0.1)
        cfg = BuilderConfig(bias_field=0.3)
        assert parse_sequence("wait 1ms", cfg).metadata == ScheduleMetadata(bias_field=0.3)
        assert parse_sequence("@bias_field 0.1\nwait 1ms", cfg).metadata.bias_field == 0.1
        with pytest.raises(ParseError, match="unknown pragma"):
            parse_sequence("@var x 1\nwait 1ms\n")


# every BuilderConfig value away from its default
OTHER_CFG = BuilderConfig(bias_field=0.3, mw_pi_time=3e-3, clock_pi_time=0.7e-3,
                          rf_sweep_time=6e-3, rf_f_start=810e3, rf_f_stop=770e3,
                          clean_time=2.5e-3, clean_s=1.7, clean_detuning=500e6,
                          probe_duration=0.35e-3, dead_time=6e-3)
MW_RABI, CLOCK_RABI = OTHER_CFG.mw_rabi, OTHER_CFG.clock_rabi


class TestEventForms:
    """Each kind from its bare, positional and keyword forms under a
    non-default BuilderConfig equals the event built directly."""

    CASES = [
        ("mw", MwPulse(duration=math.pi / MW_RABI, rabi_frequency=MW_RABI)),
        ("mw pi/2 90deg", MwPulse(duration=math.pi / 2 / MW_RABI, rabi_frequency=MW_RABI,
                                  phase=math.pi / 2)),
        ("mw transition=g40-g30 duration=1.5e-3 rabi=2000 detuning=5 phase=0.5rad",
         MwPulse(duration=1.5e-3, rabi_frequency=2000.0, detuning=5.0, phase=0.5)),
        ("clock", ClockPulse(duration=math.pi / CLOCK_RABI, rabi_frequency=CLOCK_RABI)),
        ("clock 3pi/4 0.1rad transition=g30-m20 rabi=2000",
         ClockPulse(transition="g30-m20", duration=0.75 * math.pi / 2000.0,
                    rabi_frequency=2000.0, phase=0.1)),
        ("rf_sweep", RfSweep(duration=6e-3, f_start=810e3, f_stop=770e3)),
        ("rf_sweep duration=4e-3 f_start=790e3 f_stop=780e3",
         RfSweep(duration=4e-3, f_start=790e3, f_stop=780e3)),
        ("probe", Probe410(target_F=4, duration=0.35e-3)),
        ("probe target_f=3 duration=2e-4", Probe410(target_F=3, duration=2e-4)),
        ("clean", Clean530(target_F=4, duration=2.5e-3, s=1.7, detuning=500e6)),
        ("clean target_f=3 duration=2e-3 s=1.5 detuning=6e8",
         Clean530(target_F=3, duration=2e-3, s=1.5, detuning=6e8)),
        ("wait", Wait(0.0)),
        ("wait 0.02", Wait(0.02)),
        ("wait duration=0.02", Wait(0.02)),
        ("measure", Measure(label="N4", target_F=4, probe_duration=0.35e-3, dead_time=6e-3)),
        ("measure N3_mf0", Measure(label="N3_mf0", target_F=3, probe_duration=0.35e-3,
                                   dead_time=6e-3)),
        ("measure label=N3 target_f=4 probe_duration=3e-4 dead_time=5e-3",
         Measure(label="N3", target_F=4, probe_duration=3e-4, dead_time=5e-3)),
    ]

    @pytest.mark.parametrize("text, event", CASES, ids=[text for text, _ in CASES])
    def test_parsed_equals_constructed(self, text, event):
        assert parse_sequence(text, OTHER_CFG).events == (event,)

    def test_every_kind_is_covered(self):
        assert {type(event) for _, event in self.CASES} == set(get_args(PulseEvent))


class TestSerializer:
    def _random_schedule(self, rng) -> Schedule:
        events = []
        for _ in range(rng.integers(0, 8)):
            kind = rng.integers(0, 7)
            if kind == 0:
                events.append(MwPulse(duration=float(rng.uniform(0, 5e-3)),
                                      rabi_frequency=float(rng.uniform(100, 5000)),
                                      detuning=float(rng.uniform(-50, 50)),
                                      phase=float(rng.uniform(0, 2 * math.pi))))
            elif kind == 1:
                events.append(ClockPulse(duration=float(rng.uniform(0, 2e-3)),
                                         rabi_frequency=float(rng.uniform(1e3, 1e4)),
                                         transition="g30-m20" if rng.random() < 0.5 else "g40-m30"))
            elif kind == 2:
                events.append(RfSweep(duration=float(rng.uniform(1e-3, 1e-2)),
                                      f_start=float(rng.uniform(7e5, 9e5)),
                                      f_stop=float(rng.uniform(7e5, 9e5))))
            elif kind == 3:
                events.append(Probe410(target_F=int(rng.choice([3, 4])),
                                       duration=float(rng.uniform(0, 1e-3))))
            elif kind == 4:
                events.append(Clean530(duration=float(rng.uniform(0, 5e-3)),
                                       s=float(rng.uniform(0.5, 2.0))))
            elif kind == 5:
                events.append(Wait(float(rng.uniform(0, 10.0))))
            else:   # each measurement its own label: a repeated one is rejected
                label = str(rng.choice(["N4", "N3", "N4_mf0", "N3_mf0"]))
                events.append(Measure(label=f"{label}_{len(events)}",
                                      target_F=int(rng.choice([3, 4]))))
        meta = ScheduleMetadata(name="random", bias_field=float(rng.uniform(0.05, 1.0)),
                                initial_state="g30" if rng.random() < 0.5 else None)
        return Schedule(tuple(events), meta)

    def test_roundtrip_property(self, model):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            s = self._random_schedule(rng)
            text = serialize_sequence(s)
            back = parse_sequence(text, model=model)
            assert back == s

    def test_duration_is_sum(self):
        rng = np.random.default_rng(7)
        s = self._random_schedule(rng)
        assert s.duration == sum(ev.duration for ev in s.events)

    def test_golden_serialization(self):
        # the canonical line format is frozen: loaders and golden files
        # depend on it byte for byte
        golden = (
            "@name state_prep\n"
            "@bias_field 0.6\n"
            "@initial_state g4m4\n"
            "rf_sweep duration=0.005 f_start=800000.0 f_stop=785000.0\n"
            "mw transition=g40-g30 duration=0.002 rabi=1570.7963267948965 "
            "detuning=0.0 phase=0.0\n"
            "clean target_f=4 duration=0.003 s=1.0 detuning=614000000.0\n"
            "mw transition=g40-g30 duration=0.002 rabi=1570.7963267948965 "
            "detuning=0.0 phase=0.0\n"
        )
        assert serialize_sequence(build_state_prep()) == golden


class TestBuilders:
    def test_state_prep_default(self):
        s = build_state_prep()
        assert len(s.events) == 4
        # sweep + pi pulse + clean = 10 ms, plus the theta pulse
        assert s.duration == pytest.approx(10e-3 + 2e-3)
        assert isinstance(s.events[0], RfSweep)
        assert isinstance(s.events[1], MwPulse)
        assert s.events[1].rabi_frequency * s.events[1].duration == pytest.approx(math.pi)
        assert isinstance(s.events[2], Clean530)
        assert s.events[2].duration == pytest.approx(3e-3)

    def test_state_prep_theta_zero(self):
        s = build_state_prep(theta=0.0)
        assert len(s.events) == 3

    def test_cp0_equals_ramsey(self):
        cfg = BuilderConfig()
        a = build_cp(0, 0.5, 2.0, cfg)
        b = build_ramsey(0.5, 2.0, cfg)
        assert a.events == b.events

    def test_cp1_is_hahn_echo(self):
        s = build_cp(1, 1.0)
        kinds = [type(ev).__name__ for ev in s.events]
        assert kinds == ["MwPulse", "Wait", "MwPulse", "Wait", "MwPulse"]
        assert s.events[0].rabi_frequency * s.events[0].duration == pytest.approx(math.pi / 2)
        assert s.events[2].rabi_frequency * s.events[2].duration == pytest.approx(math.pi)
        assert s.events[1].duration == pytest.approx(0.5)
        assert s.events[3].duration == pytest.approx(0.5)

    def test_cp_spacing(self):
        s = build_cp(4, 2.0)
        waits = [ev.duration for ev in s.events if isinstance(ev, Wait)]
        assert waits[0] == pytest.approx(0.25)
        assert waits[-1] == pytest.approx(0.25)
        for w in waits[1:-1]:
            assert w == pytest.approx(0.5)
        assert sum(waits) == pytest.approx(2.0)

    def test_ramsey_zero_time_is_back_to_back(self):
        s = build_ramsey(0.0, 0.0)
        areas = [ev.rabi_frequency * ev.duration for ev in s.events if isinstance(ev, MwPulse)]
        assert sum(areas) == pytest.approx(math.pi)

    def test_negative_rejected(self):
        with pytest.raises(ScheduleError):
            build_ramsey(-1.0)
        with pytest.raises(ScheduleError):
            build_cp(-1, 1.0)
        with pytest.raises(ScheduleError, match="whole number, got 2.5"):
            build_cp(2.5, 1.0)
        with pytest.raises(ScheduleError):
            build_rabi_scan(-0.1)

    def test_readout_has_four_measures(self):
        s = build_shelving_readout()
        measures = [ev for ev in s.events if isinstance(ev, Measure)]
        assert len(measures) == 4
        assert [m.label for m in measures] == ["N4", "N3", "N4_mf0", "N3_mf0"]
        for m in measures:
            assert m.duration == pytest.approx(0.4e-3 + 4e-3)

    def test_double_mode_has_four_clock_pulses(self):
        s = build_clock_coherence("double", 0.05)
        clocks = [ev for ev in s.events if isinstance(ev, ClockPulse)]
        # four storage pulses plus the four readout shelving pulses
        assert len(clocks) == 8
        pre_readout = clocks[:4]
        assert {ev.transition for ev in pre_readout} == {"g40-m30", "g30-m20"}

    def test_single_mode_has_two_clock_pulses(self):
        s = build_clock_coherence("single", 0.05)
        non_readout = [ev for ev in s.events[:-8] if isinstance(ev, ClockPulse)]
        assert len(non_readout) == 2

    def test_bad_mode(self):
        with pytest.raises(ScheduleError):
            build_clock_coherence("triple", 0.1)

    def test_builders_validate(self, model):
        for s in (build_state_prep(), build_ramsey(1.0, 3.0), build_cp(8, 10.0),
                  build_rabi_scan(0.5), build_shelving_readout(),
                  build_clock_coherence("single", 0.1),
                  build_clock_coherence("double", 0.1)):
            s.validate(model)


def _protocol_goldens():
    """(name, params, text) of every case of protocol_goldens.txt."""
    text = (Path(__file__).parent / "protocol_goldens.txt").read_text()
    cases = []
    for case in re.split(r"^## ", text, flags=re.M)[1:]:
        head, _, body = case.partition("\n")
        name, params = head.split(" ", 1)
        params = json.loads(params)
        cases.append(pytest.param(name, params, body,
                                  id=f"{name}-{'other' if params else 'defaults'}"))
    return cases


class TestProtocolGoldens:
    """Every protocol's schedule at its builder's defaults and at one other
    parameter set, byte for byte."""

    @pytest.mark.parametrize("name, params, text", _protocol_goldens())
    def test_protocol_matches_golden(self, name, params, text):
        assert serialize_sequence(build_protocol(name, params)) == text

    def test_every_protocol_has_both_cases(self):
        cases = [case.values[:2] for case in _protocol_goldens()]
        assert sorted(name for name, params in cases if not params) == sorted(PROTOCOLS)
        assert sorted(name for name, params in cases if params) == sorted(PROTOCOLS)
