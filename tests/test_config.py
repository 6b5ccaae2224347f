"""Config file grammar: directives, defaults, and line-numbered errors."""

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import DESK_CLUSTERS, build_tree, desk_topology, format_topology
from wsnmon.alerts import Comparator, Severity
from wsnmon.config import RunConfig, parse_config
from wsnmon.environment import Channel, ChannelModel
from wsnmon.errors import ConfigError
from wsnmon.netsim import LinkOutage, RadioSpec

DESK_CFG = """\
# two clusters of two leaflets each
radio 30 0.0
cluster N1 1.1 1.2
cluster N2 2.1 2.2
"""


# directive-shaped lines: a directive (or a bad one), then tokens
DIRECTIVES = ["radio", "cluster", "pos", "rounds", "period_ms", "hop_ms", "fail", "env",
              "seed", "alert", "bogus"]
TOKENS = ["N1", "1.1", "N2", "BS", "NULL", "0", "1", "-1", "0.5", "30", "1e308", "1e400",
          "nan", "x", "#", "walk", "script", "0:1,5:2", "1:", ":", "temp_c", "light_raw",
          "co_ppm", "GT", "LT", "WARN", "DANGER", "99999999999999999999", "1_0", "\u0663",
          "1_0.5", "0:1_0"]


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
        assert run.sim.field.seed == 0
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
        topology = parse_config(text).sim.topology
        assert (topology.root, *topology.sensing_nodes()) == ("BS", "N1", "1.1")

    def test_radio_defaults_when_absent(self):
        run = parse_config("cluster N1 1.1\n")
        assert run.sim.topology.radio == RadioSpec(30.0, 0.0)

    def test_scalars(self):
        text = DESK_CFG + "rounds 7\nperiod_ms 400\nhop_ms 25\nseed 99\n"
        run = parse_config(text)
        assert (run.sim.rounds, run.sim.round_period_ms) == (7, 400)
        assert (run.sim.hop_latency_ms, run.sim.field.seed) == (25, 99)

    def test_positions(self):
        """A leaflet exactly at the radio's range is in range, one just beyond
        it is refused on its pos line, and the tree keeps no positions."""
        placed = "radio 100 0\ncluster N1 1.1\npos BS 0 0\npos N1 30 0\npos 1.1 90 {}\n"
        topology = parse_config(placed.format("80")).sim.topology  # 60, 80: 100 m
        assert topology == parse_config("radio 100 0\ncluster N1 1.1\n").sim.topology
        err = parse_error(placed.format("80.001"))
        assert err.line_no == 5
        assert err.message == "line 5: link N1-1.1 spans 100.0 m > range 100.0 m"

    def test_env_walk(self):
        run = parse_config(DESK_CFG + "env temp_c 20 walk 0.5\n")
        model = run.sim.field.channels[Channel.TEMP_C]
        assert model == ChannelModel(20.0, sigma=0.5)
        # a walk of width 0 is a constant channel, the same model as no clause
        run = parse_config(DESK_CFG + "env temp_c 25 walk 0\n")
        assert run.sim.field.channels[Channel.TEMP_C] == ChannelModel(25.0)

    def test_env_script(self):
        run = parse_config(DESK_CFG + "env ch4_ppm 1000 script 0:1000,50:12000,60:900\n")
        model = run.sim.field.channels[Channel.CH4_PPM]
        assert model == ChannelModel(1000.0, script=((0, 1000.0), (50, 12000.0), (60, 900.0)))
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
        err = parse_error("radio 30 0\ncluster NULL\n")
        assert err.line_no == 2
        assert "reserved" in err.message

    def test_root_label_is_taken(self):
        err = parse_error(DESK_CFG + "cluster BS 3.1\n")
        assert err.line_no == 5
        assert "'BS' used twice" in err.message

    def test_duplicate_pos(self):
        assert parse_error(DESK_CFG + "pos N1 0 0\npos N1 1 1\n").line_no == 6

    def test_pos_for_unknown_node(self):
        err = parse_error(DESK_CFG + "pos X9 0 0\n")
        assert err.line_no == 5
        assert "X9" in err.message

    def test_pos_out_of_radio_range(self):
        """The error names the later of the link's two pos lines."""
        err = parse_error("radio 30 0\ncluster N1 1.1\npos N1 0 0\npos 1.1 100 0\n")
        assert err.line_no == 4
        assert "range" in err.message
        err = parse_error("radio 30 0\ncluster N1 1.1\npos 1.1 100 0\nrounds 3\npos N1 0 0\n")
        assert err.line_no == 5

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

    @pytest.mark.parametrize("lines, line_no", [
        # the last round starts at 11 * 10**4299 ms, a time of 4301 digits
        ("rounds 12\nperiod_ms 1" + "0" * 4299 + "\nhop_ms 0", 6),
        # with the default period_ms, the rounds line is the long one
        ("hop_ms 0\nrounds 1" + "0" * 4299, 6),
    ], ids=["period_ms", "rounds"])
    def test_event_times_str_cannot_write(self, lines, line_no):
        """Round times past the interpreter's int-to-str digit limit could be
        written to no log or trace: the schedule is refused."""
        err = parse_error(DESK_CFG + lines + "\n")
        assert err.line_no == line_no
        assert "too many digits" in err.message

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

    @pytest.mark.parametrize("lines, line_no", [
        ("rounds 1_0", 5),
        ("seed \u0663", 5),
        ("env temp_c 1_0.5", 5),
        ("pos N1 \uff11 0", 5),
        ("fail N1 1.1 0 1_0", 5),
        ("env temp_c 25 script 0:20,\u0663:21", 5),
    ])
    def test_numbers_are_ascii_without_separators(self, lines, line_no):
        """int() and float() read these; a config number may not hold them."""
        err = parse_error(DESK_CFG + lines + "\n")
        assert err.line_no == line_no
        assert "bad " in err.message

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=10, max_value=10**6), st.data())
    def test_a_number_int_reads_but_the_grammar_does_not_names_its_line(self, n, data):
        """A digit written in another script, or a ``_`` between digits,
        makes a number int() and float() read: each is a ConfigError."""
        digits = str(n)
        at = data.draw(st.integers(min_value=1, max_value=len(digits) - 1))
        odd = data.draw(st.one_of(
            st.just("_"),
            st.characters(categories=["Nd"]).filter(lambda c: not c.isascii()),
        ))
        token = digits[:at] + odd + digits[at + (odd != "_"):]
        assert int(token) > 0 and float(token) > 0
        directive = data.draw(st.sampled_from(["rounds", "seed", "period_ms", "env temp_c"]))
        err = parse_error(DESK_CFG + f"{directive} {token}\n")
        assert err.line_no == 5 and repr(token) in err.message, err

    def test_message_names_line(self):
        err = parse_error("radio 30 0\nbogus\ncluster N1\n")
        assert "line 2" in str(err)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(),
        st.lists(
            st.builds(lambda directive, args: " ".join([directive, *args]),
                      st.sampled_from(DIRECTIVES), st.lists(st.sampled_from(TOKENS), max_size=6)),
            max_size=6,
        ).map("\n".join),
    ))
    @example("cluster N1 1.1 NULL")
    @example("cluster BS 1.1")
    @example("radio 10 0\ncluster N1 1.1\npos 1.1 50 0\npos N1 0 0")
    def test_parser_raises_only_config_error(self, text):
        """Arbitrary text or directive-shaped lines parse or raise ConfigError,
        which names its line unless the file has no cluster line at all."""
        try:
            parse_config(text)
        except ConfigError as e:
            assert e.line_no is not None or "no cluster lines" in e.message, e


DESK_100 = "radio 100 0\ncluster N1 1.1 1.2\ncluster N2 2.1 2.2\n"  # lines 1-3


class TestRadioRange:
    """Every tree link whose two ends have pos lines spans at most the radio's
    range; the first link beyond it, in the tree's order, is refused on the
    later of its two pos lines."""

    def test_range_violation(self):
        """A leaflet 150 m from its head cannot sit on a 100 m radio."""
        err = parse_error(DESK_100 + "pos BS 0 0\npos N1 10 0\npos 1.1 160 0\n")
        assert err.line_no == 6
        assert err.message == "line 6: link N1-1.1 spans 150.0 m > range 100.0 m"

    def test_positions_in_range_accepted(self):
        """Positions in range pass the check and are not kept: the tree equals
        the unplaced one."""
        run = parse_config(DESK_100 + "pos BS 0 0\npos N1 10 0\npos 1.1 30 0\n")
        assert run.sim.topology == build_tree(DESK_CLUSTERS, RadioSpec(100.0))

    def test_pos_lines_before_the_cluster_lines(self):
        err = parse_error("radio 100 0\npos 1.1 160 0\npos N1 10 0\ncluster N1 1.1\n")
        assert err.line_no == 3
        assert err.message == "line 3: link N1-1.1 spans 150.0 m > range 100.0 m"

    def test_a_head_out_of_range_of_the_base_station(self):
        err = parse_error(DESK_100 + "pos N2 0 120\npos 2.1 0 150\npos BS 0 0\n")
        assert err.line_no == 6
        assert err.message == "line 6: link BS-N2 spans 120.0 m > range 100.0 m"

    def test_the_first_link_in_tree_order_is_named(self):
        """N1-1.1 comes before N2-2.2 in the tree, though its pos lines come
        after theirs in the file."""
        err = parse_error(DESK_100 + "pos N2 0 0\npos 2.2 0 200\npos N1 0 0\npos 1.1 0 300\n")
        assert err.line_no == 7
        assert err.message == "line 7: link N1-1.1 spans 300.0 m > range 100.0 m"


class TestFormatTopology:
    def test_round_trip_with_positions(self):
        positions = {"BS": (0.0, 0.0), "N1": (30.0, 0.0), "1.1": (30.0, 20.5)}
        topo = build_tree([("N1", ["1.1", "1.2"]), ("N2", [])], RadioSpec(45.0, 0.25))
        text = format_topology(topo, positions)
        assert parse_config(text).sim.topology == topo

    def test_output_is_plain_directives(self):
        lines = format_topology(desk_topology()).splitlines()
        assert lines[0] == "radio 30 0"
        assert lines[1:] == ["cluster N1 1.1 1.2", "cluster N2 2.1 2.2"]
