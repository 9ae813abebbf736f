"""Documentation honesty checks.

Docs rot silently; these tests keep the load-bearing references alive:
every module, class, and function the markdown files name must actually
exist, and the documented artifact lists must match the bench suite.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DOCS = REPO / "docs"


class TestDocsExist:
    def test_doc_files_present(self):
        expected = {
            "architecture.md",
            "substrate.md",
            "active_learning.md",
            "benchmarks.md",
            "operations.md",
            "mlcore.md",
            "data_plane.md",
        }
        assert expected <= {p.name for p in DOCS.glob("*.md")}

    def test_top_level_docs_present(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (REPO / name).exists(), name


class TestDottedReferencesResolve:
    """Every `repro.x.y` dotted path mentioned in the docs must import."""

    DOTTED = re.compile(r"`(repro(?:\.[a-z_]+)+)`")

    @pytest.mark.parametrize(
        "doc",
        sorted(DOCS.glob("*.md")) + [REPO / "README.md", REPO / "DESIGN.md"],
        ids=lambda p: p.name,
    )
    def test_module_paths_import(self, doc):
        import importlib

        text = doc.read_text()
        for match in set(self.DOTTED.findall(text)):
            parts = match.split(".")
            # try progressively shorter prefixes: the path may end in an
            # attribute (class/function) rather than a module
            for cut in range(len(parts), 0, -1):
                candidate = ".".join(parts[:cut])
                try:
                    mod = importlib.import_module(candidate)
                except ImportError:
                    continue
                obj = mod
                ok = True
                for attr in parts[cut:]:
                    if not hasattr(obj, attr):
                        ok = False
                        break
                    obj = getattr(obj, attr)
                assert ok, f"{doc.name}: {match} resolves to module {candidate} but attribute chain fails"
                break
            else:
                pytest.fail(f"{doc.name}: dotted path {match} does not import")


class TestNamedSymbolsExist:
    """Spot-check classes/functions the docs lean on."""

    def test_core_symbols(self):
        from repro.core import (  # noqa: F401
            ALBADross,
            AnnotationSession,
            DriftMonitor,
            FrameworkConfig,
            MetricHighlighter,
        )

    def test_active_symbols(self):
        from repro.active import (  # noqa: F401
            ActiveLearner,
            ThresholdController,
            run_active_learning,
        )

    def test_mlcore_symbols(self):
        from repro.mlcore import (  # noqa: F401
            Autoencoder,
            LGBMClassifier,
            LogisticRegression,
            MLPClassifier,
            RandomForestClassifier,
        )


class TestBenchArtifactListMatches:
    def test_benchmarks_doc_covers_all_bench_files(self):
        doc = (DOCS / "benchmarks.md").read_text()
        bench_files = {
            p.stem for p in (REPO / "benchmarks").glob("test_*.py")
        }
        for name in bench_files:
            assert name in doc, f"benchmarks.md does not mention {name}"

    def test_experiments_md_covers_all_artifacts(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for artifact in (
            "test_table4_hyperparams",
            "test_table5_summary",
            "test_fig3_volta_curves",
            "test_fig4_query_distribution",
            "test_fig5_eclipse_curves",
            "test_fig6_unseen_apps",
            "test_fig7_robustness_motivation",
            "test_fig8_unseen_inputs",
        ):
            assert artifact in text, artifact


class TestExamplesListed:
    def test_readme_mentions_every_example(self):
        readme = (REPO / "README.md").read_text()
        for example in (REPO / "examples").glob("*.py"):
            assert example.name in readme, f"README does not mention {example.name}"


class TestExamplesCompile:
    """Examples must at least parse and import-check (full runs are manual)."""

    @pytest.mark.parametrize(
        "example",
        sorted((REPO / "examples").glob("*.py")),
        ids=lambda p: p.name,
    )
    def test_example_compiles(self, example):
        import py_compile

        py_compile.compile(str(example), doraise=True)

    @pytest.mark.parametrize(
        "example",
        sorted((REPO / "examples").glob("*.py")),
        ids=lambda p: p.name,
    )
    def test_example_has_main_guard_and_docstring(self, example):
        text = example.read_text()
        assert '__main__' in text, example.name
        assert text.lstrip().startswith('"""'), example.name
