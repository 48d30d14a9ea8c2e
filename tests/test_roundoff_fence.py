"""A roundoff fence: the reference studies and the convergence levels, pinned.

Every number below was produced by commit 4afe800.  A change that moves one
updates it here, and its CHANGES.md entry lists the old and new values.
Records are pinned to 1e-12 relative: a step with reordered floating-point
operations moves the 5-fold star by ~1e-14 over 5000 steps, while tau
scaled by 1 + 1e-9 inside the step moves a length by far more.  The
collapsing runs are pinned at records before the collapse, where their
area is still well conditioned, and the 10-fold star also at t = 0.02,
before it has relaxed to a near circle that no longer shows such a change.
"""

import pytest

#: study -> (status, steps taken, extinction time, {record index: (t, area,
#: length, isoperimetric ratio)}), all at commit 4afe800
PINNED = {
    "shrinking-4fold": ("extinct", 5410, 0.541, {
        10: (0.1, 2.7640544509454847, 6.164700209038235, 1.0941263187251866),
        30: (0.3, 1.5081486965984965, 4.353617378251785, 1.000107050335807),
        50: (0.5, 0.2525651466759127, 1.7815976895729126, 1.0000828936398733),
    }),
    "conserved-5fold": ("completed", 5000, None, {
        10: (0.1, 3.7966332742889666, 7.630821404321983, 1.2204895485885117),
        30: (0.3, 3.79673369228689, 6.907947303340097, 1.0001796905364897),
        50: (0.5, 3.7967336621409764, 6.9076224637752635, 1.0000856357166144),
    }),
    "conserved-10fold": ("completed", 5000, None, {
        2: (0.02, 3.443743007931475, 10.263369590020936, 2.434105167433807),
        10: (0.1, 3.444192987596523, 6.579127800408104, 1.0000905030864733),
        50: (0.5, 3.444191830898715, 6.579109499108392, 1.0000852750168208),
    }),
    "conserved-polyline": ("completed", 12500, None, {
        10: (0.1, 5.720972988277706, 9.372640686800759, 1.2219239435350735),
        50: (0.5, 5.7210738158628205, 8.50895180154264, 1.0070817177002112),
        125: (1.25, 5.721077810735277, 8.479391342425103, 1.0000958846766295),
    }),
    "circle-extinction-tau-4e-05": ("extinct", 12511, 0.50044, {
        1: (0.08, 2.63853661845297, 5.75843349671538, 1.0000822548215778),
        5: (0.4, 0.6285183875146965, 2.8104883312458764, 1.000082254821578),
    }),
    "circle-extinction-tau-2e-05": ("extinct", 25011, 0.50022, {
        1: (0.04, 2.8897976920339206, 6.02637999318984, 1.000082254821578),
        10: (0.4, 0.6283668135405789, 2.810149421055998, 1.0000822548215778),
    }),
    "circle-extinction-tau-1e-05": ("extinct", 50012, 0.50012, {
        1: (0.02, 3.0154347948286535, 6.155987985941913, 1.0000822548215778),
        20: (0.4, 0.6282910048057433, 2.80997990200007, 1.0000822548215778),
    }),
}


@pytest.mark.parametrize("name", PINNED)
def test_study_is_where_it_was_pinned(name, reference_report, convergence_report):
    records = {r.name: r for r in reference_report.records + convergence_report.records}
    assert records.keys() == PINNED.keys()
    status, steps, extinction_time, rows = PINNED[name]
    record = records[name]
    tau = record.config.tau
    assert record.status == status
    assert round(record.trajectory.final_time / tau) == steps
    if extinction_time is None:
        assert record.extinction_time is None
    else:
        assert abs(record.extinction_time - extinction_time) <= tau
    for index, pinned in rows.items():
        row = record.trajectory.diagnostics[index]
        measured = (row.t, row.area, row.length, row.isoperimetric_ratio)
        assert measured == pytest.approx(pinned, rel=1e-12, abs=0), f"record {index}"
