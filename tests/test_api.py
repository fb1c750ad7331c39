"""The public names, the private names the docs cite, the imports each
module reads, the one-cache policy, the one reader of every `limits`
argument, and the hooks the benchmark's tracer relies on.

`perfbench/tracer.py` wraps functions by name and indexes span names in
`layer_stats`; a refactor that renames or drops one of them would make
`perfbench/run.py --trace 1` fail or silently charge work to the wrong
layer.  The names are read from the tracer itself, not copied here.
"""
import ast
import functools
import importlib
import importlib.util
import inspect
import io
import pkgutil
import re
import tokenize
from pathlib import Path
from types import SimpleNamespace

import pytest

import flatknots
from flatknots import OrbitBudgetExceeded, OrbitLimits

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _indexed_span_names() -> set[str]:
    """String arguments of every `.index(...)` call in Tracer.layer_stats."""
    tree = ast.parse(TRACER.read_text())
    (fn,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "layer_stats"
    ]
    return {
        call.args[0].value
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "index"
        and call.args
        and isinstance(call.args[0], ast.Constant)
    }


def test_every_public_name_resolves():
    assert len(flatknots.__all__) == len(set(flatknots.__all__))
    for name in flatknots.__all__:
        assert getattr(flatknots, name, None) is not None, name


def test_readme_documents_every_public_name():
    """The backticked names in the README's Public API section are
    exactly the exported ones, so no export goes undocumented."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"`([^`]+)`", section)) == set(flatknots.__all__)


def _cited_private_names():
    """(file, module or None, name) for every `_name` and `module._name`
    in a docstring or comment of src/flatknots, or in README.md."""
    texts = [("README.md", (ROOT / "README.md").read_text())]
    for path in sorted((ROOT / "src" / "flatknots").glob("*.py")):
        source = path.read_text()
        texts += [
            (path.name, ast.get_docstring(node) or "")
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        ]
        texts += [
            (path.name, tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT
        ]
    return {
        (where, *m.groups())
        for where, text in texts
        for m in re.finditer(r"\b(?:(\w+)\.)?(_[A-Za-z]\w*)", text)
    }


def test_cited_private_names_exist():
    """A private name the docs or comments cite names something in the
    package: `module._name` in that module, `Class._name` on that class of
    the package, a bare `_name` in some module, so a renamed or deleted
    helper cannot live on in the prose."""
    modules = {
        info.name: importlib.import_module(f"flatknots.{info.name}")
        for info in pkgutil.iter_modules(flatknots.__path__)
    }
    classes = {
        name: obj
        for mod in modules.values()
        for name, obj in vars(mod).items()
        if inspect.isclass(obj) and obj.__module__ == mod.__name__
    }
    owners = {**classes, **modules}
    cited = _cited_private_names()
    assert len(cited) > 20, cited
    missing = [
        (where, owner, name)
        for where, owner, name in sorted(cited, key=str)
        if not any(
            hasattr(obj, name)
            for obj in ([owners[owner]] if owner in owners else modules.values())
        )
    ]
    assert not missing, missing


def _unread_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name a module-level import in source binds
    and the module never reads; `from __future__` imports bind none."""
    tree = ast.parse(source)
    bound = [
        (node.lineno, alias.asname or alias.name.split(".")[0])
        for node in tree.body
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [(line, name) for line, name in bound if name not in read]


def test_unread_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nimport re as regex\n"
    source += "from json import dumps, loads\n\ndef f():\n    return os, loads\n"
    assert _unread_imports(source) == [(3, "regex"), (4, "dumps")]


def test_no_module_keeps_an_import_it_never_reads():
    """Every name a module-level import of a `flatknots` module binds is
    read in that module; `__init__` imports to re-export, so it is left
    out."""
    unread = [
        (path.name, line, name)
        for path in sorted(Path(flatknots.__file__).parent.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unread_imports(path.read_text(encoding="utf-8"))
    ]
    assert unread == []


# private names the tracer still lists that the engine no longer has:
# reduce._full_orbit, a memo read that _reduce_word's returned head made
# unneeded; the tracer skips a missing name, and its metrics read 0
RETIRED_HOOKS = {"reduce._full_orbit"}


def test_benchmark_tracer_hooks_exist():
    tracer = _load_tracer()
    for short, names in tracer.PRIVATE.items():
        mod = importlib.import_module(f"flatknots.{short}")
        for name in names:
            hook = getattr(mod, name, None)
            if f"{short}.{name}" in RETIRED_HOOKS:
                assert hook is None, f"flatknots.{short}.{name} is back: unretire it"
            else:
                assert callable(hook), f"flatknots.{short}.{name}"
    wrapped = {name for name, _ in tracer._targets()}
    indexed = _indexed_span_names()
    assert indexed, "no span names found in Tracer.layer_stats"
    needed = indexed | set(tracer.SITE_COUNTERS) | {"moves.apply"}
    needed |= {f"{short}.{name}" for short, names in tracer.PRIVATE.items() for name in names}
    needed -= RETIRED_HOOKS
    assert needed <= wrapped, sorted(needed - wrapped)


def test_tracer_counts_the_engine_work(monkeypatch):
    """The engine calls the names the tracer wraps, so on runs that do
    the work the per-layer counts are nonzero.  A private fast path
    around one of them would read 0 here, not in a timing.  The memo
    starts cold: a certified call follows the links earlier calls stored
    and skips the very work counted here.

    One gap is known: the reduction takes its decreasing sites from the
    private moves._decreasing_sites and performs its moves with
    moves._perform, which the tracer does not wrap, so on this path
    moves.enumerate_decreasing.sites reads 0 and moves.apply counts only
    replay.  A spy on _decreasing_sites counts those sites instead.

    A second gap: the tracer counts catalog.candidates as canonical_word
    calls under enumerate_diagrams, and the generator builds only
    canonical words, so none is made and the count reads 0.  A spy on
    catalog._completes, which runs once per complete word built, counts
    them instead.

    A third gap: the orbit scans find their FR3 sites with the private
    moves._fr3_sites, which the tracer does not wrap, and the tracer
    counts orbit nodes as enumerate_fr3 calls under reduce, so on this
    path moves.enumerate_fr3.sites and reduce.orbit_nodes read 0.  A spy
    on _fr3_sites counts those sites instead, and the tracer still sees
    the scans as reduce._scan_orbit calls."""
    monkeypatch.setattr(flatknots.reduce, "_memo", {})
    # no decreasing site, so its reduction starts with an FR3 orbit step
    d = flatknots.parse("+1 +2 -1 +3 +4 -2 -3 +5 -4 -5")
    scrambled = flatknots.apply(
        flatknots.apply(d, flatknots.Move("fr1-insert", "th", (3,))),
        flatknots.Move("fr2-insert", "Nth", (1, 6)),
    )
    sites = []
    decreasing_sites = flatknots.moves._decreasing_sites

    def spy(word, back):
        for m in decreasing_sites(word, back):
            sites.append(m)
            yield m

    monkeypatch.setattr(flatknots.moves, "_decreasing_sites", spy)
    completed = []
    completes = flatknots.catalog._completes

    def completes_spy(*args):
        completed.append(args)
        return completes(*args)

    monkeypatch.setattr(flatknots.catalog, "_completes", completes_spy)
    fr3_found = []
    fr3_sites = flatknots.moves._fr3_sites

    def fr3_spy(word, back):
        found = fr3_sites(word, back)
        fr3_found.extend(found)
        return found

    monkeypatch.setattr(flatknots.moves, "_fr3_sites", fr3_spy)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        _, trace = flatknots.monotone_reduce(d)
        same, cert = flatknots.equivalent(d, scrambled, with_certificate=True)
        flatknots.replay_trace(cert)
        flatknots.classify(3)
    finally:
        tracer.uninstall()
    assert trace.steps[0].kind == "fr3" and same
    stats = tracer.layer_stats()
    kinds = {m.kind for m in trace.steps + cert.steps}
    assert kinds == {"fr1-remove", "fr1-insert", "fr2-remove", "fr2-insert", "fr3"}
    for kind in kinds:
        assert stats[f"moves.apply.calls.{kind}"] > 0, kind
    assert stats["reduce._scan_orbit.calls"] > 0
    assert sites and completed and fr3_found


def test_only_the_fr3_singletons_are_cached():
    """`reduce._memo` is the library's one shared cache.  The only
    memoized functions are the three single-entry FR3 builders, the
    catalog, its before index and the shape table, and the one
    per-object cache is
    `GaussDiagram._canon`: a diagram's canonical word and offsets, which
    live and die with the diagram."""
    modules = [flatknots] + [
        importlib.import_module(f"flatknots.{info.name}")
        for info in pkgutil.iter_modules(flatknots.__path__)
    ]
    cached = set()
    for mod in modules:
        for obj in vars(mod).values():
            for fn in vars(obj).values() if inspect.isclass(obj) else [obj]:
                if hasattr(fn, "cache_info"):
                    cached.add(f"{fn.__module__}.{fn.__qualname__}")
                elif isinstance(fn, functools.cached_property):
                    cached.add(f"{obj.__module__}.{obj.__qualname__}.{fn.attrname}")
    assert cached == {
        "flatknots.moves.build_fr3_catalog",
        "flatknots.moves._fr3_befores",
        "flatknots.moves._fr3_shape_table",
        "flatknots.diagram.GaussDiagram._canon",
    }


# no decreasing site: its reduction starts with an FR3 orbit scan, and
# its whole FR3 orbit has more than 3 nodes
D = flatknots.parse("+1 +2 -1 +3 +4 -2 -3 +5 -4 -5")
# every public entry point that takes `limits`, with its other arguments
LIMITED = {
    "fr3_orbit": (D,),
    "monotone_reduce": (D,),
    "crossing_number": (D,),
    "minimal_class_code": (D,),
    "equivalent": (D, D),
    "is_composite": (D,),
    "verify_superadditivity": (D, D),
    "classify": (4,),
}
# the calls whose answer needs an orbit of more than 3 nodes
OVER_3_NODES = {"fr3_orbit", "verify_superadditivity"}


def _annotations(obj) -> list:
    """The resolved annotations of obj's parameters."""
    params = inspect.signature(obj, eval_str=True).parameters.values()
    return [p.annotation for p in params]


def _parameters(obj) -> set[str]:
    try:
        return set(inspect.signature(obj).parameters)
    except (TypeError, ValueError):  # not callable, or a builtin type such as an exception
        return set()


def test_every_entry_point_that_takes_limits_is_listed():
    """A new entry point with a `limits` parameter joins LIMITED, so it
    cannot skip the checks below."""
    takes_limits = {
        name for name in flatknots.__all__ if "limits" in _parameters(getattr(flatknots, name))
    }
    assert takes_limits == set(LIMITED)


@pytest.mark.parametrize("name", sorted(LIMITED))
@pytest.mark.parametrize(
    "limits",
    [5, 0, "", {}, OrbitLimits, SimpleNamespace(max_nodes=-1)],
    ids=["int", "zero", "empty-str", "empty-dict", "the-class", "duck-typed"],
)
def test_limits_that_is_not_an_orbit_limits_is_refused(name, limits):
    # 5 raised an AttributeError, the falsy values and the class ran with
    # the default budget, and a duck-typed budget skipped OrbitLimits' check
    with pytest.raises(ValueError, match="^limits must be an OrbitLimits or None, not ") as info:
        getattr(flatknots, name)(*LIMITED[name], limits=limits)
    assert "\n" not in str(info.value)


# the required arguments, other than diagrams, of the public functions
# that take one
OTHER_ARGUMENTS = {"m": flatknots.Move("fr1-insert", "th", (0,)), "arrow": 1, "g": 0}


def _required_arguments(fn) -> list:
    """fn's required arguments: D for a parameter annotated GaussDiagram,
    else its entry in OTHER_ARGUMENTS."""
    return [
        D if p.annotation is flatknots.GaussDiagram else OTHER_ARGUMENTS[p.name]
        for p in inspect.signature(fn, eval_str=True).parameters.values()
        if p.default is p.empty
    ]


# every public function (not class) with a parameter annotated
# GaussDiagram, and the BasedDiagram constructor, with their required
# arguments; a new one cannot skip the diagram check
TAKES_DIAGRAM = {
    name: _required_arguments(obj)
    for name in flatknots.__all__
    if callable(obj := getattr(flatknots, name))
    and (name == "BasedDiagram" or not inspect.isclass(obj))
    and flatknots.GaussDiagram in _annotations(obj)
}
DIAGRAM_ARGUMENTS = [
    (name, i)
    for name, args in sorted(TAKES_DIAGRAM.items())
    for i, arg in enumerate(args)
    if arg is D
]


def test_every_function_that_takes_a_diagram_is_discovered():
    assert len(TAKES_DIAGRAM) == 21 and "BasedDiagram" in TAKES_DIAGRAM
    assert set(LIMITED) - {"classify"} < set(TAKES_DIAGRAM)
    assert "CompositenessVerdict" not in TAKES_DIAGRAM


@pytest.mark.parametrize("name, position", DIAGRAM_ARGUMENTS)
@pytest.mark.parametrize("value", ["+1 -1", None, (1, -1)], ids=["code", "none", "word"])
def test_a_diagram_argument_that_is_not_a_gauss_diagram_is_refused(name, position, value):
    # each raised AttributeError: ... object has no attribute '_canon'
    # (or 'word', 'n', 'size')
    fn = getattr(flatknots, name)
    args = list(TAKES_DIAGRAM[name])
    assert fn(*args) is not None  # the other arguments are valid
    args[position] = value
    param = list(inspect.signature(fn).parameters)[position]
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert str(info.value) == f"{param} must be a GaussDiagram, not {value!r}"


# one argument of each public function that takes a based diagram, a
# trace, a move, a code or a coefficient dict: the call, a good value and
# a bad one; each bad value raised an AttributeError (... has no
# attribute 'diagram', 'start', 'kind', 'split' or 'items')
_MOVE = flatknots.Move("fr1-insert", "th", (0,))
WRONG_TYPES = {
    "connected_sum": (
        lambda b: flatknots.connected_sum(b, flatknots.BasedDiagram(D)),
        flatknots.BasedDiagram(D),
        "+1 -1",
        "b1 must be a BasedDiagram, not '+1 -1'",
    ),
    "replay_trace": (
        flatknots.replay_trace,
        flatknots.MoveTrace("0", (_MOVE,), "+1 -1"),
        "x",
        "trace must be a MoveTrace, not 'x'",
    ),
    "inverse": (lambda m: flatknots.inverse(m, 2), _MOVE, "x", "m must be a Move, not 'x'"),
    "apply": (lambda m: flatknots.apply(D, m), _MOVE, "x", "m must be a Move, not 'x'"),
    "parse": (flatknots.parse, "+1 -1", None, "text must be a str, not None"),
    "UPolynomial.from_dict": (
        flatknots.UPolynomial.from_dict,
        {1: 2},
        [1],
        "coeffs must be a dict, not [1]",
    ),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPES))
def test_an_argument_of_the_wrong_type_is_refused_in_one_line(name):
    call, good, bad, text = WRONG_TYPES[name]
    call(good)
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == text


@pytest.mark.parametrize("name", sorted(LIMITED))
def test_none_and_an_orbit_limits_give_the_default_answer(name):
    fn, args = getattr(flatknots, name), LIMITED[name]
    answer = fn(*args)
    assert fn(*args, limits=None) == answer
    if name in OVER_3_NODES:
        with pytest.raises(OrbitBudgetExceeded, match="exceeds the 3-node budget"):
            fn(*args, limits=OrbitLimits(max_nodes=3))
    else:
        assert fn(*args, limits=OrbitLimits(max_nodes=3)) == answer
