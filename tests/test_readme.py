"""The README's library tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md: Library tour", "exec"), namespace)
    assert namespace["pred"].score_fn.kind == "otcp"
