"""parlint: the kernel-twin consistency rules (PAR2xx).

Contracts pinned here:

* **Every rule fires on its minimal drifted tree** at the exact line and
  stays silent on the in-sync tree next to it.  Fixture trees mirror the
  real module layout (``src/repro/cluster/kernel.py`` and friends under a
  tmp dir) because parlint recognizes the twins by module-name suffix.
* **The acceptance mutation**: deleting one ``elif form == _FORM_*`` branch
  from a copy of the real ``cluster/kernel.py`` makes PAR202 fire at the
  dispatch-chain head while the pristine copy scans clean.
* **The vocabulary property**: for any form vocabulary, a spec/kernel pair
  generated in sync extracts clean, and deleting any single ``_FORM_*``
  constant is flagged by PAR201 (hypothesis-driven); the real
  ``SPEC_FORMS``/``_FORM_CODES`` pair satisfies the same invariant at
  runtime and through parlint's extraction.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.framework import get_pass, scan_paths
from repro.analysis.parlint.rules import (
    RULES,
    RULES_BY_ID,
    check_models,
    extract_models,
)

REPO = Path(__file__).resolve().parent.parent

SPEC_PATH = "src/repro/steering/base.py"
KERNEL_PATH = "src/repro/cluster/kernel.py"
COMPILED_PATH = "src/repro/uops/compiled.py"
TABLE_PATH = "src/repro/analysis/detlint/rules.py"

#: A minimal in-sync twin tree: three forms ("dep" rides the kernel's else).
BASE_TREE = {
    SPEC_PATH: (
        'SPEC_FORMS = ("constant", "table", "dep")\n'
        "\n"
        "\n"
        "class CompiledSteeringSpec:\n"
        "    def __init__(self, form):\n"
        "        self.form = form\n"
    ),
    KERNEL_PATH: (
        '_FORM_CODES = {"constant": 1, "table": 2, "dep": 3}\n'
        "_FORM_CALLBACK = 0\n"
        '_FORM_CONSTANT = _FORM_CODES["constant"]\n'
        '_FORM_TABLE = _FORM_CODES["table"]\n'
        '_FORM_DEP = _FORM_CODES["dep"]\n'
        "\n"
        "\n"
        "def run_cycle(meta, form):\n"
        "    occ, dst, src, lat, base, wide = meta[0]\n"
        "    if form == _FORM_CALLBACK:\n"
        "        out = 0\n"
        "    elif form == _FORM_CONSTANT:\n"
        "        out = base\n"
        "    elif form == _FORM_TABLE:\n"
        "        out = dst\n"
        "    else:\n"
        "        out = wide\n"
        "    return out\n"
    ),
    COMPILED_PATH: (
        'STORED_FIELDS = ("occ", "dst", "src", "lat", "base", "wide")\n'
        "\n"
        "\n"
        "def dispatch_meta(trace):\n"
        "    return list(zip(trace.occ, trace.dst, trace.src, trace.lat,"
        " trace.base, trace.wide))\n"
    ),
    TABLE_PATH: (
        'TRACE_COLUMN_ATTRS = frozenset({"occ", "dst", "src", "lat", "base",'
        ' "wide"})\n'
    ),
}


def scan_tree(tmp_path, files):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return scan_paths([tmp_path], passes=(get_pass("parlint"),))


def mutate(files, path, old, new, count=1):
    source = files[path]
    assert source.count(old) == count, f"fixture drifted: {old!r} not found once"
    updated = dict(files)
    updated[path] = source.replace(old, new)
    return updated


class Case:
    """One rule's minimal drift and its in-sync counterpart tree."""

    def __init__(self, rule, files, bad_path, bad_line, good_files=None):
        self.rule = rule
        self.files = files
        self.bad_path = bad_path
        self.bad_line = bad_line
        self.good_files = good_files if good_files is not None else BASE_TREE

    def __repr__(self):
        return self.rule


CASES = [
    # A form with no _FORM_* constant in the kernel (anchored at the last
    # constant assignment).
    Case(
        "PAR201",
        mutate(
            BASE_TREE,
            SPEC_PATH,
            'SPEC_FORMS = ("constant", "table", "dep")',
            'SPEC_FORMS = ("constant", "table", "dep", "magic")',
        ),
        bad_path=KERNEL_PATH,
        bad_line=5,
    ),
    # A _FORM_CODES key that is not a SPEC_FORMS entry.
    Case(
        "PAR201",
        mutate(
            BASE_TREE,
            KERNEL_PATH,
            '_FORM_DEP = _FORM_CODES["dep"]',
            '_FORM_DEP = _FORM_CODES["dep"]\n_FORM_MAGIC = _FORM_CODES["magic"]',
        ),
        bad_path=KERNEL_PATH,
        bad_line=6,
    ),
    # The kernel's dispatch chain loses its TABLE branch while the constant
    # stays (anchored at the chain head).
    Case(
        "PAR202",
        mutate(
            BASE_TREE,
            KERNEL_PATH,
            "    elif form == _FORM_TABLE:\n        out = dst\n",
            "",
        ),
        bad_path=KERNEL_PATH,
        bad_line=10,
    ),
    # A spec-form literal outside the closed vocabulary.
    Case(
        "PAR203",
        {
            **BASE_TREE,
            "src/repro/steering/policies.py": (
                "from repro.steering.base import CompiledSteeringSpec\n"
                "\n"
                'spec = CompiledSteeringSpec(form="magic")\n'
            ),
        },
        bad_path="src/repro/steering/policies.py",
        bad_line=3,
        good_files={
            **BASE_TREE,
            "src/repro/steering/policies.py": (
                "from repro.steering.base import CompiledSteeringSpec\n"
                "\n"
                'spec = CompiledSteeringSpec(form="constant")\n'
            ),
        },
    ),
    # dispatch_meta() packs one more field than the kernel unpacks.
    Case(
        "PAR204",
        mutate(
            BASE_TREE,
            COMPILED_PATH,
            " trace.base, trace.wide))",
            " trace.base, trace.wide, trace.extra))",
        ),
        bad_path=KERNEL_PATH,
        bad_line=9,
    ),
    # detlint's column table misses a stored field.
    Case(
        "PAR205",
        mutate(
            BASE_TREE,
            TABLE_PATH,
            ' "base", "wide"})',
            ' "base"})',
        ),
        bad_path=TABLE_PATH,
        bad_line=1,
    ),
]


class TestBaseTreeIsInSync:
    def test_in_sync_tree_scans_clean(self, tmp_path):
        result = scan_tree(tmp_path, BASE_TREE)
        assert result.errors == []
        assert [i.finding.render() for i in result.findings] == []


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c.rule}-{c.bad_line}")
class TestRuleCases:
    def test_fires_on_drift_at_exact_line(self, case, tmp_path):
        result = scan_tree(tmp_path, case.files)
        hits = [i.finding for i in result.findings if i.finding.rule == case.rule]
        assert hits, f"{case.rule} did not fire on the drifted tree"
        assert hits[0].path.endswith(case.bad_path)
        assert hits[0].line == case.bad_line

    def test_silent_on_in_sync_tree(self, case, tmp_path):
        result = scan_tree(tmp_path, case.good_files)
        assert [
            i.finding.render()
            for i in result.findings
            if i.finding.rule == case.rule
        ] == []


class TestRealTwinMutation:
    """The acceptance mutation: real files, one deleted dispatch branch."""

    REAL_PATHS = (SPEC_PATH, KERNEL_PATH, COMPILED_PATH, TABLE_PATH)

    def _real_tree(self):
        return {rel: (REPO / rel).read_text() for rel in self.REAL_PATHS}

    def test_pristine_real_twins_scan_clean(self, tmp_path):
        result = scan_tree(tmp_path, self._real_tree())
        assert result.errors == []
        assert [i.finding.render() for i in result.fresh] == []

    def test_deleting_a_kernel_branch_fires_par202_at_chain_head(self, tmp_path):
        files = self._real_tree()
        files = mutate(
            files,
            KERNEL_PATH,
            "                        elif form == _FORM_TABLE:\n"
            "                            cluster = table[index]\n",
            "",
        )
        result = scan_tree(tmp_path, files)
        hits = [i.finding for i in result.fresh if i.finding.rule == "PAR202"]
        assert len(hits) == 1
        assert hits[0].path.endswith(KERNEL_PATH)
        head_line = next(
            number
            for number, text in enumerate(files[KERNEL_PATH].splitlines(), start=1)
            if text.strip() == "if form == _FORM_CALLBACK:"
        )
        assert hits[0].line == head_line
        assert "_FORM_TABLE" in hits[0].message

    def test_dropping_a_kernel_constant_fires_par201(self, tmp_path):
        files = self._real_tree()
        files = mutate(
            files,
            KERNEL_PATH,
            '_FORM_MODULO = _FORM_CODES["modulo"]\n',
            "",
        )
        result = scan_tree(tmp_path, files)
        hits = [i.finding for i in result.fresh if i.finding.rule == "PAR201"]
        assert hits and "modulo" in hits[0].message


FORM_NAMES = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=8),
    unique=True,
    min_size=1,
    max_size=6,
)


def _synthetic_pair(forms):
    spec = "SPEC_FORMS = ({})\n".format(
        ", ".join(f'"{form}"' for form in forms) + ("," if len(forms) == 1 else "")
    )
    codes = ", ".join(f'"{form}": {index + 1}' for index, form in enumerate(forms))
    constants = "\n".join(
        f'_FORM_{form.upper()} = _FORM_CODES["{form}"]' for form in forms
    )
    branches = "".join(
        f"    elif form == _FORM_{form.upper()}:\n        out = {index + 1}\n"
        for index, form in enumerate(forms)
    )
    kernel = (
        f"_FORM_CODES = {{{codes}}}\n"
        "_FORM_CALLBACK = 0\n"
        f"{constants}\n"
        "\n"
        "\n"
        "def run_cycle(meta, form):\n"
        "    a, b, c, d, e, f = meta[0]\n"
        "    if form == _FORM_CALLBACK:\n"
        "        out = 0\n"
        f"{branches}"
        "    else:\n"
        "        out = -1\n"
        "    return out\n"
    )
    return spec, kernel


class TestVocabularyProperty:
    @settings(max_examples=50, deadline=None)
    @given(forms=FORM_NAMES)
    def test_in_sync_vocabulary_extracts_clean(self, forms):
        spec, kernel = _synthetic_pair(forms)
        models = extract_models(
            ast.parse(spec), SPEC_PATH, "repro.steering.base", None
        )
        extract_models(ast.parse(kernel), KERNEL_PATH, "repro.cluster.kernel", models)
        assert models.spec.forms == tuple(forms)
        lowered = {f for f in models.kernel.constants.values() if f is not None}
        assert lowered == set(forms)
        assert [f.render() for f in check_models(models)] == []

    @settings(max_examples=50, deadline=None)
    @given(forms=FORM_NAMES, data=st.data())
    def test_any_single_dropped_constant_is_flagged(self, forms, data):
        victim = data.draw(st.sampled_from(forms))
        spec, kernel = _synthetic_pair(forms)
        kernel = kernel.replace(
            f'_FORM_{victim.upper()} = _FORM_CODES["{victim}"]\n', ""
        )
        models = extract_models(
            ast.parse(spec), SPEC_PATH, "repro.steering.base", None
        )
        extract_models(ast.parse(kernel), KERNEL_PATH, "repro.cluster.kernel", models)
        rules = {f.rule for f in check_models(models)}
        assert "PAR201" in rules

    def test_real_vocabulary_is_in_sync_three_ways(self):
        from repro.cluster.kernel import _FORM_CODES
        from repro.steering.base import SPEC_FORMS

        assert set(SPEC_FORMS) == set(_FORM_CODES)
        models = None
        for rel, module in (
            (SPEC_PATH, "repro.steering.base"),
            (KERNEL_PATH, "repro.cluster.kernel"),
        ):
            tree = ast.parse((REPO / rel).read_text())
            models = extract_models(tree, rel, module, models)
        assert set(models.spec.forms) == set(SPEC_FORMS)
        lowered = {f for f in models.kernel.constants.values() if f is not None}
        assert lowered == set(_FORM_CODES)

    def test_rule_table_is_complete(self):
        assert [rule.rule_id for rule in RULES] == sorted(RULES_BY_ID)
        assert len(RULES) == 5
