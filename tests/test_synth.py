import hashlib

import numpy as np
import pytest

from roadcost.dataio import save_dataset
from roadcost.errors import GenerationError
from roadcost.graph import build_dual
from roadcost.solver import build_q, solve_weights
from roadcost.synth import SyntheticSpec, equal_split_schedule, generate_synthetic
from roadcost.trips import record_tag_weights


def _trips_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    for ta, tb in zip(a, b):
        if ta.cost != tb.cost or len(ta.records) != len(tb.records):
            return False
        for ra, rb in zip(ta.records, tb.records):
            if (ra.edge, ra.day_class, ra.enter, ra.exit) != (
                rb.edge, rb.day_class, rb.enter, rb.exit,
            ):
                return False
    return True


class TestDeterminism:
    def test_same_seed_identical(self):
        spec = SyntheticSpec(rows=4, cols=4, n_trips=30, noise=0.1)
        g1, t1, trips1 = generate_synthetic(spec, seed=5)
        g2, t2, trips2 = generate_synthetic(spec, seed=5)
        assert np.array_equal(g1.lengths, g2.lengths)
        assert np.array_equal(t1.values, t2.values)
        assert _trips_equal(trips1, trips2)

    def test_different_seed_differs(self):
        spec = SyntheticSpec(rows=4, cols=4, n_trips=30)
        _, t1, trips1 = generate_synthetic(spec, seed=5)
        _, t2, trips2 = generate_synthetic(spec, seed=6)
        assert not np.array_equal(t1.values, t2.values)


class TestGenerationBasics:
    def test_grid_shape(self):
        spec = SyntheticSpec(rows=3, cols=4, n_trips=0)
        graph, _, trips = generate_synthetic(spec, seed=0)
        assert graph.n_vertices == 12
        # horizontal roads: 3*3, vertical roads: 2*4, two directions each
        assert graph.n_edges == 2 * (3 * 3 + 2 * 4)
        assert len(trips) == 0

    def test_trips_valid_against_graph(self):
        spec = SyntheticSpec(rows=4, cols=4, n_trips=40)
        graph, _, trips = generate_synthetic(spec, seed=1)
        trips.validate_against(graph)

    def test_costs_match_model_when_noise_free(self):
        from roadcost.trips import trip_cost

        spec = SyntheticSpec(rows=4, cols=4, n_trips=25, noise=0.0)
        graph, truth, trips = generate_synthetic(spec, seed=2)
        for trip in trips:
            assert trip.cost == pytest.approx(trip_cost(trip, graph, truth), rel=1e-12)

    def test_noise_perturbs_costs(self):
        from roadcost.trips import trip_cost

        spec = SyntheticSpec(rows=4, cols=4, n_trips=25, noise=0.1)
        graph, truth, trips = generate_synthetic(spec, seed=2)
        deviations = [
            abs(t.cost - trip_cost(t, graph, truth)) / trip_cost(t, graph, truth)
            for t in trips
        ]
        assert max(deviations) > 0.01

    def test_no_immediate_u_turns(self):
        spec = SyntheticSpec(rows=5, cols=5, n_trips=60, trip_len=(5, 10))
        graph, _, trips = generate_synthetic(spec, seed=3)
        dual = build_dual(graph)
        for trip in trips:
            for r1, r2 in zip(trip.records, trip.records[1:]):
                reverse = (
                    graph.tails[r1.edge] == graph.heads[r2.edge]
                    and graph.heads[r1.edge] == graph.tails[r2.edge]
                )
                assert not reverse
                k = dual.dual_edge_index(r1.edge, r2.edge)
                assert k is not None and not dual.reverse_mask[k]

    def test_walk_longer_than_a_day_raises(self):
        # 3 km segments at <= 65 km/h take >= 166 s each; 600 of them exceed a day
        spec = SyntheticSpec(
            rows=3, cols=3, n_trips=1, trip_len=(600, 600), length_range=(3000.0, 3000.0)
        )
        with pytest.raises(GenerationError, match="more than a day"):
            generate_synthetic(spec, seed=0)

    def test_timestamps_on_second_grid(self):
        # HH:MM:SS serialization is lossless only for whole-second times
        spec = SyntheticSpec(rows=4, cols=4, n_trips=20)
        _, _, trips = generate_synthetic(spec, seed=4)
        for trip in trips:
            for rec in trip.records:
                assert abs(rec.enter * 60 - round(rec.enter * 60)) < 1e-6
                assert abs(rec.exit * 60 - round(rec.exit * 60)) < 1e-6

    def test_speed_limit_truth(self):
        spec = SyntheticSpec(
            rows=3, cols=3, n_trips=5,
            speed_limit_choices=(50.0, 110.0), truth_from_speed_limits=True,
        )
        graph, truth, _ = generate_synthetic(spec, seed=5)
        np.testing.assert_allclose(truth.values[: graph.n_edges], 3.6 / graph.speed_limits)


class TestCoverage:
    def test_target_met(self):
        spec = SyntheticSpec(rows=6, cols=6, n_trips=80, trip_len=(3, 6), coverage=0.5)
        graph, _, trips = generate_synthetic(spec, seed=6)
        covered = {r.edge for t in trips for r in t.records}
        assert len(covered) / graph.n_edges >= 0.5

    def test_unreachable_target_raises(self):
        spec = SyntheticSpec(rows=6, cols=6, n_trips=2, trip_len=(1, 1), coverage=0.9)
        with pytest.raises(GenerationError, match="coverage"):
            generate_synthetic(spec, seed=7)


class TestCoverAllEntries:
    def test_every_entry_observed(self):
        spec = SyntheticSpec(rows=3, cols=3, n_trips=10, cover_all_entries=True)
        graph, _, trips = generate_synthetic(spec, seed=8)
        touched = np.zeros(graph.n_entries, dtype=bool)
        for trip in trips:
            for rec in trip.records:
                for tag, _ in record_tag_weights(rec, graph.tag_schedule):
                    touched[tag * graph.n_edges + rec.edge] = True
        assert touched.all()

    def test_noise_free_recovery(self):
        spec = SyntheticSpec(rows=4, cols=4, n_trips=30, noise=0.0, cover_all_entries=True)
        graph, truth, trips = generate_synthetic(spec, seed=9)
        q = build_q(trips, graph)
        d, _ = solve_weights(q, trips.costs(), None, None, 0.0, 0.0, 1e-10, tol=1e-12)
        np.testing.assert_allclose(d, truth.values, rtol=1e-6)


class TestSpecValidation:
    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(rows=1, cols=5)

    def test_range_count_mismatch(self):
        with pytest.raises(ValueError, match="weight range"):
            SyntheticSpec(tags=("A",), weight_ranges=((0.1, 0.2), (0.3, 0.4)))

    def test_truth_needs_limits(self):
        with pytest.raises(ValueError, match="speed"):
            SyntheticSpec(truth_from_speed_limits=True)

    def test_equal_split_schedule_partitions(self):
        schedule = equal_split_schedule(("A", "B", "C"))
        assert schedule.n_tags == 3
        assert schedule.tag_of("weekday", 0.0) == 0
        assert schedule.tag_of("weekday", 500.0) == 1
        assert schedule.tag_of("weekend", 720.0) == 0


# sha256 of every file ``save_dataset`` writes, for specs that together take
# every branch of the generator (coverage steering, noise, speed-limit truth,
# the weekend day class, entry top-ups over three tags). Computed with numpy
# 2.4.6; a change to the draw order, the timing or the record columns fails.
PINNED_DATASETS = {
    "coverage-noise-limit-truth": (
        SyntheticSpec(
            rows=4, cols=5, n_trips=40, trip_len=(3, 8), coverage=0.6, noise=0.1,
            speed_limit_choices=(50.0, 110.0), truth_from_speed_limits=True,
        ),
        11,
        {
            "costs": "c72b3609e7afa4027a72356c43e7dd4f7e477334b57f9558ac54c0cff71ea480",
            "network": "d2b554c6a1a29fcc99a208afd6a3c32c942314f627210a501de35b24e5e81ccd",
            "schedule": "35ac0f446497d35a812d8410a516d2ad46482c9a9600d5812c3176aeea997e6c",
            "trips": "21e2ff259909d74fa05e109aa0a181ec05b9801e568164c65539bc4bbe92e868",
            "truth": "0e429b9382345ef1962766efde4e4f4ee0253c397f327427ce853a7c5e96bcd5",
        },
    ),
    "weekend-all-entries-three-tags": (
        SyntheticSpec(
            rows=3, cols=4, n_trips=12, tags=("A", "B", "C"),
            weight_ranges=((0.04, 0.10), (0.08, 0.20), (0.10, 0.30)), noise=0.2,
            day_class="weekend", cover_all_entries=True,
        ),
        12,
        {
            "costs": "62b92be944d6f3d74ce7ab46b7f33748ffd68ee36e26bb15c019c686c4048c79",
            "network": "3ccaabc14ba324f0bb27a554033de0f7809d4636c1c8232651044cad21de705b",
            "schedule": "6bba7ab70faa3b4b12f769ebd09a681e90678bcdc5975ae761e2695a0852fb48",
            "trips": "00a0fc6170887c5f926d35a932a8ca7cb6a7ecafdbf15c3eb161874ebebcd54b",
            "truth": "296dc7477607481f4e3ec82dd164cc0e48c5eff68497e278a90507f06cdcab44",
        },
    ),
    "benchmark-shape": (
        SyntheticSpec(
            rows=6, cols=6, n_trips=60, coverage=0.3, noise=0.05,
            speed_limit_choices=(50.0, 100.0),
        ),
        13,
        {
            "costs": "3430723bc327fc0e943f23bbdf20f07592d14f0d9488c5b6b37d610e57d1ea40",
            "network": "7cf20c61c08c1c126c91422844a67a84706eddbe06d7c2b09acafae30e6a6f97",
            "schedule": "35ac0f446497d35a812d8410a516d2ad46482c9a9600d5812c3176aeea997e6c",
            "trips": "77b9641ab422bead59478ef246ee92504ce5e836c6f307d76c5297f686860742",
            "truth": "9556700be0824b9eaf62ae434a046f451f97113f2f07c5270b8b490926b42e30",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DATASETS))
def test_saved_dataset_bytes_are_pinned(tmp_path, name):
    spec, seed, digests = PINNED_DATASETS[name]
    graph, truth, trips = generate_synthetic(spec, seed)
    paths = save_dataset(graph, trips, tmp_path, truth=truth)
    written = {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in paths.items()}
    assert written == digests
