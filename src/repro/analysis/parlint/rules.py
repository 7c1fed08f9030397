"""parlint: cross-implementation consistency of the kernel twins (PAR2xx).

The bit-identity contract is implemented twice: the interpreter and the
vectorized kernel's fused dispatch (``cluster/kernel.py``).  Both are driven
by the closed lowering vocabulary ``SPEC_FORMS`` (``steering/base.py``) and
by the structure-of-arrays IR (``uops/compiled.py``).  Each of those
couplings is a *convention*, not an import: adding a steering form, a trace column or a
``dispatch_meta`` field requires edits in several files that nothing forces
to happen together.  The PR 7 ride-along IndexError and the PR 8 ``_FORM_*``
fan-out both came from exactly this kind of silent drift.

parlint checks the couplings at the AST level, cross-file:

* **PAR201** every ``SPEC_FORMS`` entry has a ``_FORM_* = _FORM_CODES[...]``
  constant in ``cluster.kernel`` (and every ``_FORM_CODES`` key is a real
  form).
* **PAR202** the fused steering dispatch chain in ``cluster.kernel`` has a
  branch (or the single trailing ``else``) for every non-callback ``_FORM_*``
  constant.
* **PAR203** every ``CompiledSteeringSpec(form="...")`` literal, anywhere,
  names a ``SPEC_FORMS`` member.
* **PAR204** the ``dispatch_meta()`` producer packs exactly as many fields
  as the kernel's tuple unpack consumes.
* **PAR205** detlint's ``TRACE_COLUMN_ATTRS`` equals
  ``CompiledTrace.STORED_FIELDS`` (``stored_columns()`` iterates
  ``STORED_FIELDS`` directly, so the pair covers all three views).

Modules are recognized by dotted-name *suffix* (``cluster.kernel`` etc.), so
fixture trees exercise the same code paths as the real repo.  Cross-file
rules only fire when the modules they reconcile were part of the scan; the
CI strict job scans the whole tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.framework import (
    AnalysisPass,
    Finding,
    PassScanner,
    Rule,
    register_pass,
)

__all__ = [
    "PARLINT_PASS",
    "RULES",
    "RULES_BY_ID",
    "extract_models",
]

RULES: Tuple[Rule, ...] = (
    Rule(
        "PAR201",
        "spec-form-constant",
        "a SPEC_FORMS entry without a matching `_FORM_* = _FORM_CODES[...]` "
        "constant in cluster.kernel (or a `_FORM_CODES` key that is not a "
        "form) means the lowered dispatch silently cannot reach that form",
    ),
    Rule(
        "PAR202",
        "dispatch-branch-coverage",
        "the fused steering dispatch chain must branch on every non-callback "
        "`_FORM_*` constant (one form may ride the trailing `else`); a "
        "missing branch sends that form down another form's code path",
    ),
    Rule(
        "PAR203",
        "unknown-spec-form",
        "a `CompiledSteeringSpec(form=...)` literal outside SPEC_FORMS "
        "fails at runtime only when that policy is first lowered; the "
        "vocabulary is closed and checked here instead",
    ),
    Rule(
        "PAR204",
        "dispatch-meta-arity",
        "dispatch_meta() packs per-µop tuples that the kernel unpacks "
        "positionally; adding a field to one side without the other "
        "misaligns every field after it",
    ),
    Rule(
        "PAR205",
        "trace-column-table-drift",
        "detlint's TRACE_COLUMN_ATTRS must equal CompiledTrace."
        "STORED_FIELDS or DET109 stops guarding new columns (the PR 7 "
        "sync test, promoted to a rule)",
    ),
)

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in RULES}

#: Module-name suffixes of the twins parlint reconciles.
_ROLE_SPEC = "steering.base"
_ROLE_KERNEL = "cluster.kernel"
_ROLE_COMPILED = "uops.compiled"
_ROLE_COLUMN_TABLE = "analysis.detlint.rules"


# ---------------------------------------------------------------------------
# Extracted models (what each twin declares)
# ---------------------------------------------------------------------------


@dataclass
class ChainModel:
    """One ``if form == _FORM_X: ... elif ...: ... else:`` dispatch chain."""

    path: str
    line: int
    #: ``[(constant name, line), ...]`` in chain order.
    branches: List[Tuple[str, int]] = field(default_factory=list)
    else_line: Optional[int] = None

    @property
    def handled(self) -> frozenset:
        return frozenset(name for name, _ in self.branches)


@dataclass
class SpecFormsModel:
    path: str
    line: int
    forms: Tuple[str, ...]


@dataclass
class KernelModel:
    path: str
    #: ``_FORM_X -> form name`` from ``_FORM_X = _FORM_CODES["name"]``
    #: assignments; the integer-literal callback constant maps to ``None``.
    constants: Dict[str, Optional[str]] = field(default_factory=dict)
    constants_line: int = 1
    chain: Optional[ChainModel] = None
    unpack_line: Optional[int] = None
    unpack_arity: Optional[int] = None


@dataclass
class CompiledModel:
    path: str
    stored_fields: Tuple[str, ...] = ()
    stored_line: int = 1
    zip_line: Optional[int] = None
    zip_arity: Optional[int] = None


@dataclass
class ColumnTableModel:
    path: str
    attrs: frozenset = frozenset()
    line: int = 1


@dataclass
class SpecUse:
    """One ``CompiledSteeringSpec(form="...")`` literal."""

    path: str
    line: int
    form: str


@dataclass
class Models:
    """Everything one scan's modules declared, ready for reconciliation."""

    spec: Optional[SpecFormsModel] = None
    kernel: Optional[KernelModel] = None
    compiled: Optional[CompiledModel] = None
    column_table: Optional[ColumnTableModel] = None
    uses: List[SpecUse] = field(default_factory=list)


# ---------------------------------------------------------------------------
# AST extraction
# ---------------------------------------------------------------------------


def _str_tuple(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """The string elements of a literal tuple/list/set, else ``None``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        # frozenset({...}) / tuple((...)) wrappers
        if node.func.id in {"frozenset", "tuple", "set", "list"} and node.args:
            return _str_tuple(node.args[0])
        return None
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return None
    values: List[str] = []
    for elt in node.elts:
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            return None
        values.append(elt.value)
    return tuple(values)


def _assign_targets(node: ast.AST) -> List[Tuple[str, ast.AST]]:
    """``(name, value)`` pairs for simple Assign/AnnAssign statements."""
    pairs: List[Tuple[str, ast.AST]] = []
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                pairs.append((target.id, node.value))
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        if isinstance(node.target, ast.Name):
            pairs.append((node.target.id, node.value))
    return pairs


def _match_form_test(test: ast.AST) -> Optional[str]:
    """``_FORM_X`` when ``test`` is ``form == _FORM_X`` (either side)."""
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Eq)
    ):
        return None
    left, right = test.left, test.comparators[0]
    for a, b in ((left, right), (right, left)):
        if (
            isinstance(a, ast.Name)
            and a.id == "form"
            and isinstance(b, ast.Name)
            and b.id.startswith("_FORM_")
        ):
            return b.id
    return None


def _extract_chains(tree: ast.Module, path: str) -> List[ChainModel]:
    """Every ``form == _FORM_*`` if/elif chain in the module, heads only."""
    elif_continuations: List[ast.If] = []
    heads: List[ast.If] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.If) and _match_form_test(node.test)):
            continue
        if (
            len(node.orelse) == 1
            and isinstance(node.orelse[0], ast.If)
            and _match_form_test(node.orelse[0].test)
        ):
            elif_continuations.append(node.orelse[0])
        if not any(existing is node for existing in heads):
            heads.append(node)
    chains: List[ChainModel] = []
    for head in heads:
        if any(cont is head for cont in elif_continuations):
            continue
        chain = ChainModel(path=path, line=head.lineno)
        node: ast.If = head
        while True:
            const = _match_form_test(node.test)
            chain.branches.append((const, node.lineno))
            orelse = node.orelse
            if (
                len(orelse) == 1
                and isinstance(orelse[0], ast.If)
                and _match_form_test(orelse[0].test)
            ):
                node = orelse[0]
                continue
            if orelse:
                chain.else_line = orelse[0].lineno
            break
        chains.append(chain)
    return chains


def _dispatch_chain(tree: ast.Module, path: str) -> Optional[ChainModel]:
    """The fused dispatch chain: the longest ``form ==`` chain in the module.

    The kernel also contains short per-form precomputation and validation
    chains; the dispatch chain dominates them by branch count.
    """
    chains = _extract_chains(tree, path)
    if not chains:
        return None
    return max(chains, key=lambda c: (len(c.branches), -c.line))


def _extract_spec(tree: ast.Module, path: str) -> Optional[SpecFormsModel]:
    for node in ast.walk(tree):
        for name, value in _assign_targets(node):
            if name == "SPEC_FORMS":
                forms = _str_tuple(value)
                if forms:
                    return SpecFormsModel(path=path, line=node.lineno, forms=forms)
    return None


def _extract_kernel(tree: ast.Module, path: str) -> KernelModel:
    model = KernelModel(path=path)
    for node in ast.walk(tree):
        for name, value in _assign_targets(node):
            if not name.startswith("_FORM_") or name == "_FORM_CODES":
                continue
            if (
                isinstance(value, ast.Subscript)
                and isinstance(value.value, ast.Name)
                and value.value.id == "_FORM_CODES"
                and isinstance(value.slice, ast.Constant)
                and isinstance(value.slice.value, str)
            ):
                model.constants[name] = value.slice.value
                model.constants_line = node.lineno
            elif isinstance(value, ast.Constant) and isinstance(value.value, int):
                model.constants[name] = None  # the callback sentinel
        # The fused dispatch metadata unpack: a wide tuple assigned from a
        # subscript of the cached meta list.
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Tuple)
                and len(target.elts) >= 6
                and all(isinstance(e, ast.Name) for e in target.elts)
                and isinstance(node.value, ast.Subscript)
            ):
                if model.unpack_arity is None or len(target.elts) > model.unpack_arity:
                    model.unpack_arity = len(target.elts)
                    model.unpack_line = node.lineno
    model.chain = _dispatch_chain(tree, path)
    return model


def _extract_compiled(tree: ast.Module, path: str) -> CompiledModel:
    model = CompiledModel(path=path)
    for node in ast.walk(tree):
        for name, value in _assign_targets(node):
            if name == "STORED_FIELDS":
                fields = _str_tuple(value)
                if fields:
                    model.stored_fields = fields
                    model.stored_line = node.lineno
        if isinstance(node, ast.FunctionDef) and node.name == "dispatch_meta":
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "zip"
                ):
                    model.zip_arity = len(sub.args)
                    model.zip_line = sub.lineno
    return model


def _extract_column_table(tree: ast.Module, path: str) -> ColumnTableModel:
    model = ColumnTableModel(path=path)
    for node in ast.walk(tree):
        for name, value in _assign_targets(node):
            if name == "TRACE_COLUMN_ATTRS":
                attrs = _str_tuple(value)
                if attrs:
                    model.attrs = frozenset(attrs)
                    model.line = node.lineno
    return model


def _extract_spec_uses(tree: ast.Module, path: str) -> List[SpecUse]:
    uses: List[SpecUse] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "CompiledSteeringSpec":
            continue
        for keyword in node.keywords:
            if (
                keyword.arg == "form"
                and isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, str)
            ):
                uses.append(SpecUse(path=path, line=node.lineno, form=keyword.value.value))
    return uses


def extract_models(
    tree: ast.Module, path: str, module_name: str, models: Optional[Models] = None
) -> Models:
    """Fold one module's declarations into ``models`` (parlint's world view)."""
    models = models if models is not None else Models()
    if module_name.endswith(_ROLE_SPEC):
        models.spec = _extract_spec(tree, path) or models.spec
    if module_name.endswith(_ROLE_KERNEL):
        models.kernel = _extract_kernel(tree, path)
    if module_name.endswith(_ROLE_COMPILED):
        models.compiled = _extract_compiled(tree, path)
    if module_name.endswith(_ROLE_COLUMN_TABLE):
        models.column_table = _extract_column_table(tree, path)
    models.uses.extend(_extract_spec_uses(tree, path))
    return models


# ---------------------------------------------------------------------------
# Reconciliation (the cross-file checks)
# ---------------------------------------------------------------------------


def _check_spec_constants(models: Models) -> List[Finding]:
    findings: List[Finding] = []
    spec, kernel = models.spec, models.kernel
    if spec is None or kernel is None:
        return findings
    lowered = {form for form in kernel.constants.values() if form is not None}
    missing = [form for form in spec.forms if form not in lowered]
    if missing:
        findings.append(
            Finding(
                "PAR201",
                kernel.path,
                kernel.constants_line,
                "SPEC_FORMS entries with no `_FORM_* = _FORM_CODES[...]` "
                f"constant: {', '.join(missing)}",
            )
        )
    unknown = sorted(lowered - set(spec.forms))
    if unknown:
        findings.append(
            Finding(
                "PAR201",
                kernel.path,
                kernel.constants_line,
                f"`_FORM_CODES` keys that are not SPEC_FORMS entries: "
                f"{', '.join(unknown)}",
            )
        )
    return findings


def _check_dispatch_coverage(models: Models) -> List[Finding]:
    kernel = models.kernel
    if kernel is None:
        return []
    expected = frozenset(
        name for name, form in kernel.constants.items() if form is not None
    )
    if not expected:
        return []
    chain = kernel.chain
    if chain is None:
        return [
            Finding(
                "PAR202",
                kernel.path,
                kernel.constants_line,
                "no `form == _FORM_*` dispatch chain found, but "
                f"{len(expected)} form constants are in scope",
            )
        ]
    handled = {name for name in chain.handled if name != "_FORM_CALLBACK"}
    missing = sorted(expected - handled)
    allowed = 1 if chain.else_line is not None else 0
    if len(missing) > allowed:
        return [
            Finding(
                "PAR202",
                chain.path,
                chain.line,
                f"dispatch chain covers {len(handled)} of {len(expected)} "
                "non-callback `_FORM_*` forms; no branch "
                f"{'(and only one may ride the else) ' if allowed else '(and no else fallback) '}"
                f"for: {', '.join(missing)}",
            )
        ]
    return []


def _check_spec_uses(models: Models) -> List[Finding]:
    if models.spec is None:
        return []
    forms = set(models.spec.forms)
    return [
        Finding(
            "PAR203",
            use.path,
            use.line,
            f"CompiledSteeringSpec(form={use.form!r}) is not a SPEC_FORMS "
            f"entry; the lowering vocabulary is closed: {models.spec.forms}",
        )
        for use in models.uses
        if use.form not in forms
    ]


def _check_meta_arity(models: Models) -> List[Finding]:
    kernel, compiled = models.kernel, models.compiled
    if (
        kernel is None
        or compiled is None
        or kernel.unpack_arity is None
        or compiled.zip_arity is None
    ):
        return []
    if kernel.unpack_arity != compiled.zip_arity:
        return [
            Finding(
                "PAR204",
                kernel.path,
                kernel.unpack_line or 1,
                f"dispatch_meta() packs {compiled.zip_arity} fields "
                f"(uops/compiled.py:{compiled.zip_line}) but the kernel "
                f"unpacks {kernel.unpack_arity}; every field after the "
                "mismatch is misaligned",
            )
        ]
    return []


def _check_column_table(models: Models) -> List[Finding]:
    table, compiled = models.column_table, models.compiled
    if table is None or compiled is None or not compiled.stored_fields:
        return []
    stored = frozenset(compiled.stored_fields)
    if table.attrs == stored:
        return []
    missing = sorted(stored - table.attrs)
    extra = sorted(table.attrs - stored)
    detail = []
    if missing:
        detail.append(f"missing from TRACE_COLUMN_ATTRS: {', '.join(missing)}")
    if extra:
        detail.append(f"not in STORED_FIELDS: {', '.join(extra)}")
    return [
        Finding(
            "PAR205",
            table.path,
            table.line,
            "TRACE_COLUMN_ATTRS != CompiledTrace.STORED_FIELDS "
            f"({'; '.join(detail)}); DET109 no longer guards the drifted "
            "columns",
        )
    ]


def check_models(models: Models) -> List[Finding]:
    """All cross-file findings for one scan's extracted models."""
    findings: List[Finding] = []
    findings.extend(_check_spec_constants(models))
    findings.extend(_check_dispatch_coverage(models))
    findings.extend(_check_spec_uses(models))
    findings.extend(_check_meta_arity(models))
    findings.extend(_check_column_table(models))
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


class _Scanner(PassScanner):
    def __init__(self) -> None:
        self.models = Models()

    def check(
        self, tree: ast.Module, source: str, path: str, module_name: str
    ) -> List[Finding]:
        extract_models(tree, path, module_name, self.models)
        return []

    def finish(self) -> List[Finding]:
        return check_models(self.models)


PARLINT_PASS = register_pass(
    AnalysisPass(
        name="parlint",
        description=(
            "cross-implementation drift between the kernel twins: SPEC_FORMS "
            "lowering coverage, dispatch branch fan-out, dispatch_meta "
            "arity, trace-column tables"
        ),
        rules=RULES,
        scanner=_Scanner,
    )
)
