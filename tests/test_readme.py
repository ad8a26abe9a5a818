import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # every python example in the README runs as written, asserts included
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2  # the library quick tour and the chart example
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
