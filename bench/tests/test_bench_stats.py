from stats import summarize, tail
from tracing import self_times


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail([float(v) for v in range(1, 21)]) == ("p50", 10.0)
    assert tail([float(v) for v in range(1, 41)]) == ("p75", 30.0)
    assert tail([float(v) for v in range(1, 101)]) == ("p90", 90.0)
    assert tail([float(v) for v in range(1, 1001)]) == ("p99", 990.0)


def test_tail_falls_back_to_max_without_ten_samples_beyond():
    assert tail([float(v) for v in range(1, 20)]) == ("max", 19.0)
    # Ties: nothing lies strictly above the percentile value.
    assert tail([2.5] * 50) == ("max", 2.5)


def test_summarize_reports_count_and_median():
    s = summarize([3.0, 1.0, 2.0])
    assert (s["median"], s["n"], s["tail"], s["tail_value"]) == (2.0, 3, "max", 3.0)
    assert summarize([])["n"] == 0


def _span(i, start, end, parent=-1, name="f"):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),    # overlaps span 2
        _span(2, 2.0, 5.0, parent=0),
        _span(3, 8.0, 12.0, parent=0),   # runs past the parent's end
        _span(4, 1.5, 2.5, parent=1),    # nested: only span 1 loses it
        _span(5, 20.0, 21.0),            # unrelated root
    ]
    out = self_times(spans)
    assert out[0] == 10.0 - (4.0 + 2.0)
    assert out[1] == 2.0 - 1.0
    assert out[2] == 3.0
    assert out[3] == 4.0
    assert out[4] == 1.0
    assert out[5] == 1.0
