"""Config file grammar: directives, defaults, and line-numbered errors."""

import pytest

from helpers import desk_topology
from wsnmon.config import RunConfig, format_topology, parse_config
from wsnmon.environment import Channel, DriftKind
from wsnmon.errors import ConfigError
from wsnmon.gateway import Comparator, Severity
from wsnmon.netsim import LinkOutage
from wsnmon.topology import RadioSpec, build_topology

DESK_CFG = """\
# two clusters of two leaflets each
radio 30 0.0
cluster N1 1.1 1.2
cluster N2 2.1 2.2
"""


def parse_error(text) -> ConfigError:
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    return exc.value


class TestParse:
    def test_minimal_file(self):
        run = parse_config(DESK_CFG)
        assert isinstance(run, RunConfig)
        assert run.sim.topology == desk_topology()
        assert run.sim.rounds == 100
        assert run.sim.round_period_ms == 1000
        assert run.sim.hop_latency_ms == 10
        assert run.sim.seed == 0
        assert run.rules == ()

    def test_builtin_channel_defaults(self):
        """Temperature and light are always equipped; gases only via env lines."""
        run = parse_config(DESK_CFG)
        channels = [s.channel for s in run.sim.sensors]
        assert channels == [Channel.TEMP_C, Channel.LIGHT_RAW]
        assert run.sim.field.channels[Channel.TEMP_C].baseline == 25.0
        assert run.sim.field.channels[Channel.LIGHT_RAW].baseline == 512.0

    def test_comments_and_blank_lines(self):
        text = "\n\n# header\nradio 30 0.0   # trailing\n\ncluster N1 1.1\n   \n"
        assert parse_config(text).sim.topology.nodes() == ("BS", "N1", "1.1")

    def test_radio_defaults_when_absent(self):
        run = parse_config("cluster N1 1.1\n")
        assert run.sim.topology.radio == RadioSpec(30.0, 0.0)

    def test_scalars(self):
        text = DESK_CFG + "rounds 7\nperiod_ms 400\nhop_ms 25\nseed 99\n"
        run = parse_config(text)
        assert (run.sim.rounds, run.sim.round_period_ms) == (7, 400)
        assert (run.sim.hop_latency_ms, run.sim.seed) == (25, 99)
        assert run.sim.field.seed == 99

    def test_positions(self):
        text = "radio 100 0\ncluster N1 1.1\npos BS 0 0\npos N1 30 0\npos 1.1 30 25.5\n"
        run = parse_config(text)
        assert run.sim.topology.positions["1.1"] == (30.0, 25.5)

    def test_env_walk(self):
        run = parse_config(DESK_CFG + "env temp_c 20 walk 0.5\n")
        model = run.sim.field.channels[Channel.TEMP_C]
        assert model.baseline == 20.0
        assert model.drift.kind is DriftKind.RANDOM_WALK
        assert model.drift.sigma == 0.5

    def test_env_script(self):
        run = parse_config(DESK_CFG + "env ch4_ppm 1000 script 0:1000,50:12000,60:900\n")
        model = run.sim.field.channels[Channel.CH4_PPM]
        assert model.drift.kind is DriftKind.SCRIPTED
        assert model.drift.script == ((0, 1000.0), (50, 12000.0), (60, 900.0))
        # the gas line also equips the sensor, after temp and light
        assert [s.channel for s in run.sim.sensors] == [
            Channel.TEMP_C, Channel.LIGHT_RAW, Channel.CH4_PPM,
        ]

    def test_fail_line(self):
        run = parse_config(DESK_CFG + "fail N1 1.1 10 20\n")
        assert run.sim.outages == (LinkOutage("N1", "1.1", 10, 20),)

    def test_alert_line(self):
        run = parse_config(DESK_CFG + "env co_ppm 10\nalert co_high co_ppm GT 50 WARN\n")
        (rule,) = run.rules
        assert rule.rule_id == "co_high"
        assert rule.channel is Channel.CO_PPM
        assert rule.comparator is Comparator.GREATER
        assert rule.threshold == 50.0
        assert rule.severity is Severity.WARN

    def test_alert_rule_order_is_file_order(self):
        text = DESK_CFG + "alert b temp_c GT 30 WARN\nalert a temp_c LT 0 DANGER\n"
        assert [r.rule_id for r in parse_config(text).rules] == ["b", "a"]


class TestErrors:
    def test_unknown_directive(self):
        err = parse_error("radio 30 0\nmesh on\ncluster N1\n")
        assert err.line_no == 2
        assert "mesh" in err.message

    def test_empty_file(self):
        err = parse_error("")
        assert "cluster" in err.message

    def test_duplicate_radio(self):
        assert parse_error("radio 30 0\nradio 40 0\ncluster N1\n").line_no == 2

    def test_duplicate_label_across_clusters(self):
        err = parse_error("cluster N1 1.1\ncluster N2 1.1\n")
        assert err.line_no == 2
        assert "1.1" in err.message

    def test_reserved_label(self):
        assert parse_error("cluster NULL\n").code == "CONFIG"

    def test_duplicate_pos(self):
        assert parse_error(DESK_CFG + "pos N1 0 0\npos N1 1 1\n").line_no == 6

    def test_pos_for_unknown_node(self):
        err = parse_error(DESK_CFG + "pos X9 0 0\n")
        assert err.line_no == 5
        assert "X9" in err.message

    def test_pos_out_of_radio_range(self):
        err = parse_error("radio 30 0\ncluster N1 1.1\npos N1 0 0\npos 1.1 100 0\n")
        assert "RANGE" in str(err) or "range" in err.message

    def test_rounds_zero(self):
        err = parse_error(DESK_CFG + "rounds 0\n")
        assert err.line_no == 5
        assert "rounds" in err.message

    def test_duplicate_scalar(self):
        assert parse_error(DESK_CFG + "rounds 5\nrounds 6\n").line_no == 6

    def test_non_integer_scalar(self):
        assert parse_error(DESK_CFG + "rounds soon\n").line_no == 5

    def test_period_shorter_than_four_hops(self):
        err = parse_error(DESK_CFG + "period_ms 100\nhop_ms 30\n")
        assert err.line_no == 5
        assert "4x" in err.message

    def test_fail_on_non_link(self):
        err = parse_error(DESK_CFG + "fail 1.1 2.1 0 5\n")
        assert err.line_no == 5
        assert "not a link" in err.message

    def test_fail_unknown_node(self):
        assert parse_error(DESK_CFG + "fail BS X9 0 5\n").line_no == 5

    def test_fail_rounds_out_of_order(self):
        assert parse_error(DESK_CFG + "fail N1 1.1 20 10\n").line_no == 5

    def test_env_unknown_channel(self):
        err = parse_error(DESK_CFG + "env humidity 40\n")
        assert err.line_no == 5
        assert "humidity" in err.message

    def test_env_duplicate_channel(self):
        assert parse_error(DESK_CFG + "env co_ppm 10\nenv co_ppm 12\n").line_no == 6

    def test_env_bad_drift_clause(self):
        assert parse_error(DESK_CFG + "env temp_c 25 wobble 3\n").line_no == 5

    def test_env_negative_walk_sigma(self):
        assert parse_error(DESK_CFG + "env temp_c 25 walk -1\n").line_no == 5

    def test_script_rounds_must_increase(self):
        err = parse_error(DESK_CFG + "env temp_c 25 script 5:1,5:2\n")
        assert err.line_no == 5

    def test_script_bad_point(self):
        assert parse_error(DESK_CFG + "env temp_c 25 script 5\n").line_no == 5

    def test_alert_wrong_arity(self):
        assert parse_error(DESK_CFG + "alert co_high co_ppm GT 50\n").line_no == 5

    def test_alert_duplicate_id(self):
        text = DESK_CFG + "alert a co_ppm GT 50 WARN\nalert a co_ppm GT 60 WARN\n"
        assert parse_error(text).line_no == 6

    def test_alert_bad_comparator(self):
        err = parse_error(DESK_CFG + "alert a co_ppm GE 50 WARN\n")
        assert "GT or LT" in err.message

    def test_alert_bad_severity(self):
        err = parse_error(DESK_CFG + "alert a co_ppm GT 50 FATAL\n")
        assert "WARN or DANGER" in err.message

    def test_alert_bad_rule_id(self):
        err = parse_error(DESK_CFG + "alert a,b temp_c GT 30 WARN\n")
        assert err.line_no == 5
        assert "rule id" in err.message

    def test_alert_on_unequipped_gas_channel(self):
        err = parse_error(DESK_CFG + "alert co_high co_ppm GT 50 WARN\nenv ch4_ppm 800\n")
        assert err.line_no == 5
        assert "co_ppm" in err.message

    @pytest.mark.parametrize("lines, line_no", [
        ("env temp_c nan", 5),
        ("env co_ppm 10\nalert x co_ppm GT nan WARN", 6),
        ("pos N1 nan 0", 5),
        ("env o2_pct 1e400", 5),
        ("env temp_c 25 walk inf", 5),
        ("env temp_c 25 script 0:20,9:-Infinity", 5),
    ])
    def test_non_finite_numbers(self, lines, line_no):
        err = parse_error(DESK_CFG + lines + "\n")
        assert err.line_no == line_no
        assert "finite" in err.message

    def test_message_names_line(self):
        err = parse_error("radio 30 0\nbogus\ncluster N1\n")
        assert "line 2" in str(err)


class TestFormatTopology:
    def test_round_trip_with_positions(self):
        topo = build_topology(
            [("N1", ["1.1", "1.2"]), ("N2", [])],
            RadioSpec(45.0, 0.25),
            positions={"BS": (0.0, 0.0), "N1": (30.0, 0.0), "1.1": (30.0, 20.5)},
        )
        text = format_topology(topo)
        assert parse_config(text).sim.topology == topo

    def test_output_is_plain_directives(self):
        lines = format_topology(desk_topology()).splitlines()
        assert lines[0] == "radio 30 0"
        assert lines[1:] == ["cluster N1 1.1 1.2", "cluster N2 2.1 2.2"]
