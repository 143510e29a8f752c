"""The §8 report carries no fuzz artifacts.

``repro fuzz`` renders its own result (:class:`~repro.fuzz.FuzzResult`);
a plain replication run must serialize and render only the §8 report.
"""


def test_standard_report_has_no_fuzz_artifacts(full_report):
    payload = full_report.to_json()
    assert "fuzz" not in payload
    text = "\n".join(full_report.summary_lines())
    assert "fuzz:" not in text
    assert "NOVEL" not in text
