"""README's library snippet runs as written, so a change to an entry
point's signature cannot leave it stale.
"""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_library_snippet_runs():
    snippets = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(snippets) == 1
    exec(compile(snippets[0], str(README), "exec"), {})
