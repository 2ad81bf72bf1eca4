import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from roadcost.dataio import (
    format_hhmm,
    format_hhmmss,
    load_dataset,
    load_network,
    load_schedule,
    load_trips,
    load_weights,
    parse_hhmm,
    parse_hhmmss,
    save_dataset,
    save_network,
    save_schedule,
    save_trips,
    write_weights,
)
from roadcost.errors import LoadError
from roadcost.graph import CostVector, peak_offpeak_schedule
from roadcost.synth import SyntheticSpec, generate_synthetic


def test_time_parsing_round_trip():
    assert parse_hhmm("7:00") == 420.0
    assert parse_hhmm("24:00") == 1440.0
    assert parse_hhmmss("24:00:00") == 1440.0
    assert format_hhmm(420.0) == "07:00"
    assert parse_hhmmss("07:30:15") == pytest.approx(450.25)
    assert format_hhmmss(450.25) == "07:30:15"


@given(st.integers(0, 1440))
def test_hhmm_round_trip(minute):
    assert parse_hhmm(format_hhmm(float(minute))) == minute


@given(st.integers(0, 86_400))
def test_hhmmss_round_trip(second):
    assert parse_hhmmss(format_hhmmss(second / 60.0)) == second / 60.0


@given(st.integers(0, 23), st.integers(60, 99))
def test_hhmm_minute_field_above_59_rejected(hours, minutes):
    with pytest.raises(ValueError, match="minutes 00-59"):
        parse_hhmm(f"{hours:02d}:{minutes:02d}")


@given(st.integers(0, 23), st.integers(0, 99), st.integers(0, 99))
def test_hhmmss_minute_and_second_fields(hours, minutes, seconds):
    text = f"{hours:02d}:{minutes:02d}:{seconds:02d}"
    if minutes > 59 or seconds > 59:
        with pytest.raises(ValueError, match="seconds 00-59"):
            parse_hhmmss(text)
    else:
        assert parse_hhmmss(text) == (hours * 3600 + minutes * 60 + seconds) / 60.0


@given(st.lists(st.integers(-99, 99), min_size=2, max_size=3).filter(lambda f: min(f) < 0))
def test_negative_fields_rejected(fields):
    text = ":".join(str(f) for f in fields)
    with pytest.raises(ValueError, match="is not hh:mm"):
        (parse_hhmm if len(fields) == 2 else parse_hhmmss)(text)


@pytest.mark.parametrize(
    "parse, text",
    [(parse_hhmmss, "00:00:99"), (parse_hhmmss, "00:75:00"), (parse_hhmm, "07:60"),
     (parse_hhmm, "24:01"), (parse_hhmmss, "24:00:01"), (parse_hhmm, "7"),
     (parse_hhmmss, "07:00"), (parse_hhmm, "+7:00"), (parse_hhmm, "07:")],
)
def test_bad_times_rejected(parse, text):
    with pytest.raises(ValueError):
        parse(text)


def test_fractional_minute_schedule_rejected_on_save(tmp_path):
    with pytest.raises(ValueError, match="whole minutes"):
        format_hhmm(420.5)


class TestScheduleIO:
    def test_round_trip(self, tmp_path):
        schedule = peak_offpeak_schedule()
        path = tmp_path / "schedule.csv"
        save_schedule(schedule, path)
        loaded = load_schedule(path)
        assert loaded.tags == schedule.tags
        assert sorted(loaded.rules) == sorted(schedule.rules)

    def test_non_partitioning_rejected(self, tmp_path):
        path = tmp_path / "schedule.csv"
        path.write_text(
            "day_class,start_hhmm,end_hhmm,tag\n"
            "weekday,00:00,06:00,OFF\n"
            "weekday,07:00,24:00,ON\n"
            "weekend,00:00,24:00,OFF\n"
        )
        with pytest.raises(LoadError) as err:
            load_schedule(path)
        assert err.value.code == "bad-schedule"

    def test_unknown_day_class(self, tmp_path):
        path = tmp_path / "schedule.csv"
        path.write_text(
            "day_class,start_hhmm,end_hhmm,tag\nholiday,00:00,24:00,OFF\n"
        )
        with pytest.raises(LoadError) as err:
            load_schedule(path)
        assert err.value.code == "malformed-row"
        assert "holiday" in err.value.problems[0]


class TestNetworkIO:
    def test_five_row_example(self, tmp_path, two_tag_schedule):
        path = tmp_path / "network.csv"
        path.write_text(
            "edge_id,tail,head,length_m,speed_limit_kmh\n"
            "AB,A,B,100,50\n"
            "BA,B,A,100,50\n"
            "BC,B,C,120,\n"
            "CB,C,B,120,\n"
            "BD,B,D,80,110\n"
        )
        graph = load_network(path, two_tag_schedule)
        assert graph.n_edges == 5
        assert graph.edge_ids == ("AB", "BA", "BC", "CB", "BD")
        assert np.isnan(graph.speed_limits[2])
        assert graph.speed_limits[4] == 110.0

    def test_round_trip(self, tmp_path):
        spec = SyntheticSpec(rows=3, cols=3, n_trips=0, speed_limit_choices=(50.0, 110.0))
        graph, _, _ = generate_synthetic(spec, seed=1)
        path = tmp_path / "network.csv"
        save_network(graph, path)
        loaded = load_network(path, graph.tag_schedule)
        assert loaded.edge_ids == graph.edge_ids
        # vertex order may differ (first appearance in the file); endpoints must not
        assert set(loaded.vertex_ids) == set(graph.vertex_ids)
        for e in range(graph.n_edges):
            assert loaded.vertex_ids[loaded.tails[e]] == graph.vertex_ids[graph.tails[e]]
            assert loaded.vertex_ids[loaded.heads[e]] == graph.vertex_ids[graph.heads[e]]
        np.testing.assert_allclose(loaded.lengths, graph.lengths, rtol=1e-11)
        np.testing.assert_allclose(loaded.speed_limits, graph.speed_limits, rtol=1e-11)

    def test_malformed_rows_all_reported(self, tmp_path, two_tag_schedule):
        path = tmp_path / "network.csv"
        path.write_text(
            "edge_id,tail,head,length_m,speed_limit_kmh\n"
            "e0,A,B,abc,\n"
            "e1,B,B,50,\n"
            "e2,B,C,-4,\n"
        )
        with pytest.raises(LoadError) as err:
            load_network(path, two_tag_schedule)
        assert err.value.code == "malformed-row"
        assert len(err.value.problems) == 3
        assert any(":2:" in p for p in err.value.problems)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_length_rejected(self, tmp_path, two_tag_schedule, value):
        path = tmp_path / "network.csv"
        path.write_text(f"edge_id,tail,head,length_m,speed_limit_kmh\ne0,A,B,{value},50\n")
        with pytest.raises(LoadError) as err:
            load_network(path, two_tag_schedule)
        assert err.value.code == "malformed-row"
        assert err.value.problems == [f"{path}:2: length {value!r} not positive and finite"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_speed_limit_rejected(self, tmp_path, two_tag_schedule, value):
        path = tmp_path / "network.csv"
        path.write_text(f"edge_id,tail,head,length_m,speed_limit_kmh\ne0,A,B,10,{value}\n")
        with pytest.raises(LoadError) as err:
            load_network(path, two_tag_schedule)
        assert err.value.code == "malformed-row"
        assert err.value.problems == [f"{path}:2: speed limit {value!r} not positive and finite"]

    def test_duplicate_edge_id_reported_with_row(self, tmp_path, two_tag_schedule):
        path = tmp_path / "network.csv"
        path.write_text(
            "edge_id,tail,head,length_m,speed_limit_kmh\n"
            "AB,A,B,100,50\n"
            "BC,B,C,120,\n"
            "AB,B,A,100,50\n"
        )
        with pytest.raises(LoadError) as err:
            load_network(path, two_tag_schedule)
        assert err.value.code == "malformed-row"
        assert err.value.problems == [f"{path}:4: duplicate edge id 'AB' (first on line 2)"]

    def test_wrong_header(self, tmp_path, two_tag_schedule):
        path = tmp_path / "network.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(LoadError, match="header"):
            load_network(path, two_tag_schedule)


@pytest.fixture
def synth_dataset():
    spec = SyntheticSpec(rows=4, cols=4, n_trips=25, noise=0.05)
    return generate_synthetic(spec, seed=13)


class TestTripsIO:
    def test_round_trip(self, tmp_path, synth_dataset):
        graph, _, trips = synth_dataset
        save_trips(trips, graph, tmp_path / "trips.csv", tmp_path / "costs.csv")
        loaded = load_trips(tmp_path / "trips.csv", tmp_path / "costs.csv", graph)
        assert len(loaded) == len(trips)
        for original, read_back in zip(trips, loaded):
            assert read_back.cost == pytest.approx(original.cost, rel=1e-11)
            assert [r.edge for r in read_back.records] == [r.edge for r in original.records]
            for ra, rb in zip(original.records, read_back.records):
                assert rb.enter == pytest.approx(ra.enter, abs=1e-6)

    def test_load_then_save_is_byte_identical(self, tmp_path, synth_dataset):
        graph, _, trips = synth_dataset
        first, second = tmp_path / "first", tmp_path / "second"
        for out in (first, second):
            out.mkdir()
        save_trips(trips, graph, first / "trips.csv", first / "costs.csv")
        loaded = load_trips(first / "trips.csv", first / "costs.csv", graph)
        assert loaded.ids().tolist() == trips.ids().tolist()
        save_trips(loaded, graph, second / "trips.csv", second / "costs.csv")
        for name in ("trips.csv", "costs.csv"):
            assert (second / name).read_bytes() == (first / name).read_bytes()

    def test_unknown_edge_reported_with_row(self, tmp_path, synth_dataset):
        graph, _, _ = synth_dataset
        (tmp_path / "trips.csv").write_text(
            "trip_id,seq,edge_id,day_class,enter_hhmmss,exit_hhmmss\n"
            "t0,0,nosuch,weekday,08:00:00,08:01:00\n"
        )
        (tmp_path / "costs.csv").write_text("trip_id,cost\nt0,5.0\n")
        with pytest.raises(LoadError) as err:
            load_trips(tmp_path / "trips.csv", tmp_path / "costs.csv", graph)
        assert err.value.code == "unknown-edge"
        assert "trips.csv:2" in err.value.problems[0]

    def test_missing_cost(self, tmp_path, synth_dataset):
        graph, _, _ = synth_dataset
        edge = graph.edge_ids[0]
        (tmp_path / "trips.csv").write_text(
            "trip_id,seq,edge_id,day_class,enter_hhmmss,exit_hhmmss\n"
            f"t0,0,{edge},weekday,08:00:00,08:01:00\n"
        )
        (tmp_path / "costs.csv").write_text("trip_id,cost\nother,5.0\n")
        with pytest.raises(LoadError) as err:
            load_trips(tmp_path / "trips.csv", tmp_path / "costs.csv", graph)
        assert err.value.code == "missing-cost"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_cost_rejected(self, tmp_path, synth_dataset, value):
        graph, _, trips = synth_dataset
        save_trips(trips, graph, tmp_path / "trips.csv", tmp_path / "costs.csv")
        lines = (tmp_path / "costs.csv").read_text().splitlines()
        lines[2] = lines[2].split(",")[0] + "," + value
        (tmp_path / "costs.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(LoadError) as err:
            load_trips(tmp_path / "trips.csv", tmp_path / "costs.csv", graph)
        assert err.value.code == "malformed-row"
        assert err.value.problems == [f"{tmp_path / 'costs.csv'}:3: cost {value!r} negative or not finite"]

    def test_non_monotone_trip(self, tmp_path, synth_dataset):
        graph, _, _ = synth_dataset
        e0, e1 = graph.edge_ids[0], graph.edge_ids[1]
        (tmp_path / "trips.csv").write_text(
            "trip_id,seq,edge_id,day_class,enter_hhmmss,exit_hhmmss\n"
            f"t0,0,{e0},weekday,08:00:00,08:05:00\n"
            f"t0,1,{e1},weekday,08:04:00,08:06:00\n"
        )
        (tmp_path / "costs.csv").write_text("trip_id,cost\nt0,5.0\n")
        with pytest.raises(LoadError) as err:
            load_trips(tmp_path / "trips.csv", tmp_path / "costs.csv", graph)
        assert err.value.code == "bad-trip"

    def test_seq_orders_records(self, tmp_path, synth_dataset):
        graph, _, _ = synth_dataset
        e0, e1 = graph.edge_ids[0], graph.edge_ids[1]
        (tmp_path / "trips.csv").write_text(
            "trip_id,seq,edge_id,day_class,enter_hhmmss,exit_hhmmss\n"
            f"t0,1,{e1},weekday,08:05:00,08:06:00\n"
            f"t0,0,{e0},weekday,08:00:00,08:05:00\n"
        )
        (tmp_path / "costs.csv").write_text("trip_id,cost\nt0,5.0\n")
        loaded = load_trips(tmp_path / "trips.csv", tmp_path / "costs.csv", graph)
        assert [r.edge for r in loaded[0].records] == [0, 1]


class TestWeightsIO:
    def test_round_trip_12_digits(self, tmp_path, synth_dataset):
        graph, truth, _ = synth_dataset
        rng = np.random.default_rng(3)
        mask = rng.random(graph.n_entries) < 0.7
        path = tmp_path / "weights.csv"
        write_weights(path, graph, truth, mask)
        loaded, loaded_mask = load_weights(path, graph)
        np.testing.assert_allclose(loaded.values, truth.values, rtol=1e-11)
        assert np.array_equal(loaded_mask, mask)

    def test_missing_entries_rejected(self, tmp_path, synth_dataset):
        graph, _, _ = synth_dataset
        path = tmp_path / "weights.csv"
        path.write_text(
            "edge_id,tag,cost_per_meter,annotated_flag\n"
            f"{graph.edge_ids[0]},OFFPEAK,0.5,1\n"
        )
        with pytest.raises(LoadError, match="missing"):
            load_weights(path, graph)

    def test_duplicate_entry_rejected(self, tmp_path, synth_dataset):
        # a second row for an entry used to overwrite the first without a word
        graph, truth, _ = synth_dataset
        path = tmp_path / "weights.csv"
        write_weights(path, graph, truth, np.ones(graph.n_entries, dtype=bool))
        lines = path.read_text().splitlines()
        edge_id, tag = lines[1].split(",")[:2]
        lines.insert(2, f"{edge_id},{tag},9.99,1")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LoadError) as err:
            load_weights(path, graph)
        assert err.value.code == "malformed-row"
        assert err.value.problems == [
            f"{path}:3: duplicate row for edge {edge_id!r}, tag {tag!r}"
        ]


def test_full_dataset_round_trip(tmp_path, synth_dataset):
    graph, truth, trips = synth_dataset
    paths = save_dataset(graph, trips, tmp_path / "data", truth=truth)
    loaded_graph, loaded_trips = load_dataset(
        paths["network"], paths["schedule"], paths["trips"], paths["costs"]
    )
    assert loaded_graph.edge_ids == graph.edge_ids
    assert len(loaded_trips) == len(trips)
    truth_loaded, _ = load_weights(paths["truth"], loaded_graph)
    np.testing.assert_allclose(truth_loaded.values, truth.values, rtol=1e-11)


def test_dataset_without_trips(tmp_path, synth_dataset):
    graph, _, trips = synth_dataset
    paths = save_dataset(graph, trips, tmp_path / "data")
    loaded_graph, loaded_trips = load_dataset(paths["network"], paths["schedule"])
    assert loaded_graph.n_edges == graph.n_edges
    assert len(loaded_trips) == 0
