"""The README's minimal example runs as written (at a smaller grid)."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    # R = 100 takes about half a minute; R = 10 runs the same calls in a
    # second or two
    code = blocks[0].replace("ps.build_grid(model.n, 100)",
                             "ps.build_grid(model.n, 10)")
    assert code != blocks[0]
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    rec = scope["rec"]
    assert rec.decision in ("continue", "stop")
    assert rec.wait is not None
    assert 0.0 <= rec.wait <= scope["model"].horizon
