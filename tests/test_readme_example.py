"""The README's library example must keep running against the package.

Removing or renaming a public name would otherwise leave the documented
example stale with nothing failing.
"""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first fenced ``python`` block under the ``## Library`` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example_runs():
    exec(compile(library_example(), f"{README}:Library", "exec"), {})
