"""Guard: the README's quickstart code runs exactly as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks(text: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadme:
    def test_readme_exists_and_mentions_the_paper(self):
        text = README.read_text()
        assert "Private and Efficient Federated Numerical Aggregation" in text
        assert "EDBT 2024" in text

    def test_quickstart_block_executes(self, capsys):
        blocks = _python_blocks(README.read_text())
        assert blocks, "README has no python code blocks"
        namespace: dict = {}
        exec(compile(blocks[0], "<README quickstart>", "exec"), namespace)
        # The quickstart prints the estimate; capture it so a clean pytest
        # run emits nothing, and assert it printed what it computed.
        printed = capsys.readouterr().out
        assert str(namespace["estimate"].value) in printed
        # The block produces both estimates and they are sane.
        assert abs(namespace["estimate"].value - 420.0) < 20.0
        assert abs(namespace["private"].value - 420.0) < 60.0

    def test_documented_commands_exist(self):
        """Every `repro-figures ...` invocation in the README parses."""
        from repro.cli import ABLATIONS, FIGURE_PANELS

        text = README.read_text()
        for match in re.findall(r"repro-figures figure (\S+)", text):
            assert match.strip("`") in FIGURE_PANELS, match
        for match in re.findall(r"repro-figures ablation (\S+)", text):
            assert match.strip("`") in ABLATIONS, match

    def test_documented_doc_files_exist(self):
        root = README.parent
        for rel in ("DESIGN.md", "EXPERIMENTS.md", "docs/protocol.md",
                    "docs/privacy.md", "docs/operations.md", "LICENSE"):
            assert (root / rel).exists(), rel


class TestFigureDeterminism:
    def test_full_panel_reproducible(self):
        """Two invocations of a figure function are bit-identical."""
        from repro.experiments import figure_3b

        a = figure_3b(epsilons=(2.0,), n_clients=1_000, n_reps=3)
        b = figure_3b(epsilons=(2.0,), n_clients=1_000, n_reps=3)
        for label in a:
            np.testing.assert_array_equal(a[label].stats[0].estimates,
                                          b[label].stats[0].estimates)

    def test_experiments_md_in_sync_with_claims(self):
        """EXPERIMENTS.md was generated (has every figure section)."""
        from repro.experiments.generate import HEADER

        text = (README.parent / "EXPERIMENTS.md").read_text()
        assert text.startswith(HEADER)
        for panel in ("1a", "1b", "1c", "2a", "2b", "2c", "3a", "3b", "4a", "4b", "4c"):
            assert f"Figure {panel}" in text, panel
        assert "bitwise quantiles" in text
