"""The README library tour, run as a doctest."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_doctest():
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    tour = doctest.DocTestParser().get_doctest(block, {}, "README library tour", str(README), 0)
    report: list[str] = []
    runner = doctest.DocTestRunner()
    result = runner.run(tour, out=report.append)
    assert result.failed == 0, "".join(report)
    assert result.attempted == 13
