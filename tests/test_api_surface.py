"""The package's public surface: every public module-level function and
class, and every public method of such a class, has a caller in the package
or the benchmark, apart from a fixed few that only the tests call; and the
package's settable values, its defaulted parameters and dataclass fields,
are a listed set."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "causalmed"

#: Public names that no code in ``src/`` or ``bench/`` refers to; the tests
#: call them.
TEST_ONLY = {
    "mediation.effect_triple",
    "scm.sample",
    "scm.format_scm",
    "data.Column.build",
}


def public(node):
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def public_definitions():
    """``module.name`` for each public module-level function and class, and
    ``module.Class.name`` for each public method (properties included) of
    such a class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in filter(public, ast.parse(path.read_text()).body):
            yield f"{path.stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for item in filter(public, node.body):
                    yield f"{path.stem}.{node.name}.{item.name}"


def referenced_names():
    """The identifiers that code in ``src/`` or ``bench/`` reads or imports,
    as (names, attributes): names and imported names, and the attribute
    names it reads, so a name inside a docstring or comment does not count."""
    names, attributes = set(), set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names, attributes


def test_public_names_without_a_caller_are_the_test_only_few():
    """A module-level name counts as referenced by any use; a method only by
    an attribute access, so a local variable of the same name does not
    count."""
    names, attributes = referenced_names()
    unreferenced = set()
    for name in public_definitions():
        attr = name.rpartition(".")[2]
        is_method = name.count(".") == 2
        if attr not in attributes and (is_method or attr not in names):
            unreferenced.add(name)
    assert unreferenced == TEST_ONLY


#: The package's settable values: every parameter with a default of a public
#: function or method (``__init__`` included), and every dataclass field with
#: a default. An option added to the package is added here.
SETTABLE = {
    "dag.CausalDag.latent",
    "dag.backdoor_paths(conditioned)",
    "dag.d_separated(conditioned)",
    "data.Binary.levels",
    "data.Binary.reference",
    "data.Dataset.weight_column",
    "data.VariableRoles.covariates",
    "data.VariableRoles.mediators",
    "data.VariableRoles.survey_year",
    "data.describe(weighted)",
    "data.ingest_csv(missing_tokens)",
    "data.ingest_csv(weight_column)",
    "data.sgm_survey_rules(depression)",
    "data.sgm_survey_rules(orientation)",
    "glm.Term.interaction",
    "glm.fit_logistic(w)",
    "mediation.EffectTriple.bootstrap_failed",
    "mediation.VariantEstimator.__init__(include_mediators)",
    "mediation.combine(ci_or)",
    "mediation.direct_effect(variant)",
    "mediation.effect_triple(bootstrap_reps)",
    "mediation.effect_triple(seed)",
    "mediation.total_effect(variant)",
    "scm.CptVariable.latent",
    "scm.CptVariable.parents",
    "scm.CptVariable.table",
    "scm.LogitVariable.coefficients",
    "scm.LogitVariable.intercept",
    "scm.LogitVariable.latent",
    "scm.LogitVariable.levels",
    "scm.LogitVariable.parents",
    "scm.ScmSpec.baseline",
    "scm.ScmSpec.exposure",
    "scm.ScmSpec.mediator",
    "scm.ScmSpec.outcome",
    "scm.oracle_estimands(joint)",
    "sensitivity.evalue(ci)",
}


def settable_values():
    """``module.function(param)`` or ``module.Class.method(param)`` for each
    defaulted parameter of a public function or method, or of the
    ``__init__`` of a class that is not a dataclass, and
    ``module.Class.field`` for each dataclass field with a default or a
    default factory, over the public names that each package module
    defines."""
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"causalmed.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            functions = [(f"{path.stem}.{name}", obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    for f in dataclasses.fields(obj):
                        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING:
                            yield f"{path.stem}.{name}.{f.name}"
                for method, fn in vars(obj).items():
                    is_init = method == "__init__" and not dataclasses.is_dataclass(obj)
                    if inspect.isfunction(fn) and (is_init or not method.startswith("_")):
                        functions.append((f"{path.stem}.{name}.{method}", fn))
            for qualname, fn in functions:
                for param in inspect.signature(fn).parameters.values():
                    if param.default is not param.empty:
                        yield f"{qualname}({param.name})"


def test_settable_values_are_the_listed_few():
    assert set(settable_values()) == SETTABLE
