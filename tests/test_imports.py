"""Every name an alsift module imports is used there, or wrapped there by perfbench;
every public function or class has a caller outside the tests, or is a README
library entry point; every ``module.name`` the README lists as a library entry
point exists, its Config reference names every config key, and its Verbs section
every CLI flag."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "alsift").glob("*.py") if p.name != "__init__.py")


@pytest.fixture(scope="module")
def wrapped():
    """``(module, name)`` for every site perfbench's spans wrap."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return {(owner, attr) for owner, attr, *_ in module.SITES}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path, wrapped):
    tree = ast.parse(path.read_text(), str(path))
    module = "alsift." + path.stem
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        "line %d: %s" % (line, name)
        for name, line in sorted(_imported(tree).items(), key=lambda item: item[1])
        if name not in used and (module, name) not in wrapped
    ]
    assert not unused, "%s imports names it never uses: %s" % (path.name, ", ".join(unused))


def _entry_points() -> list[tuple[str, str]]:
    """``(module, name)`` of each alsift name the README's Library entry points list."""
    readme = (ROOT / "README.md").read_text()
    listed = readme.split("### Library entry points", 1)[1].split("\n## ", 1)[0]
    stems = {path.stem for path in MODULES}
    return [(m, n) for m, n in re.findall(r"`(\w+)\.(\w+)[`(]", listed) if m in stems]


def _referenced(paths) -> set[str]:
    """Every name and attribute the code in ``paths`` refers to."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_outside_the_tests(wrapped):
    """A public top-level function or class that only tests call is a second
    entry to something the library already does another way."""
    outside = [*MODULES, *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = _referenced(outside) | {attr for _, attr in wrapped}
    kept = set(_entry_points())
    orphans = [
        "%s.%s" % (path.stem, node.name)
        for path in MODULES
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
        and (path.stem, node.name) not in kept
    ]
    assert not orphans, "only tests reach: %s" % ", ".join(orphans)


def test_readme_entry_points_exist():
    names = _entry_points()
    assert len(names) >= 10
    missing = [
        "%s.%s" % (m, n) for m, n in names if not hasattr(importlib.import_module("alsift." + m), n)
    ]
    assert not missing, "README lists entry points that do not exist: %s" % ", ".join(missing)


def test_readme_config_reference_names_every_key():
    from alsift.experiment import CONFIG_KEYS

    reference = (ROOT / "README.md").read_text().split("## Config reference", 1)[1].split("\n## ", 1)[0]
    missing = []
    for key in CONFIG_KEYS:
        section, name = key.split(".", 1)
        paragraph = reference.partition("**%s.**" % section)[2].split("\n\n", 1)[0]
        if "`%s`" % name not in paragraph:
            missing.append(key)
    assert not missing, "README Config reference omits: %s" % ", ".join(missing)


# parenthesised README defaults that describe a default rather than give its value
PROSE_DEFAULTS = ("none", "unset", "required", "max_epochs", "target/8")


def test_readme_config_reference_gives_every_default():
    from operator import attrgetter

    from alsift.experiment import CONFIG_KEYS, config_from_mapping

    reference = (ROOT / "README.md").read_text().split("## Config reference", 1)[1].split("\n## ", 1)[0]
    required = {"search.scheme": "pretrain", "search.function": "entropy", "search.target_size": "1"}
    defaults = config_from_mapping(required)
    checked, wrong = [], []
    for key, (path, parse) in CONFIG_KEYS.items():
        section, name = key.split(".", 1)
        paragraph = reference.partition("**%s.**" % section)[2].split("\n\n", 1)[0]
        given = re.search(r"`%s`\s*\(([^;)]*)" % re.escape(name), paragraph)
        assert given, "README Config reference gives no default for %s" % key
        # up to the first ", ", so that a list such as 1,2,3,4,5 stays whole
        text = " ".join(given.group(1).split()).split(", ", 1)[0].strip("`")
        if text.startswith(PROSE_DEFAULTS):
            continue
        checked.append(key)
        if parse(key, text) != attrgetter(path)(defaults):
            wrong.append("%s (%s, default %r)" % (key, text, attrgetter(path)(defaults)))
    assert not wrong, "README Config reference misstates: %s" % ", ".join(wrong)
    assert len(checked) >= 25


def test_readme_verbs_name_every_flag():
    import argparse

    from alsift.cli import build_parser

    verbs = (ROOT / "README.md").read_text().split("### Verbs", 1)[1].split("\n## ", 1)[0]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = [
        (verb, flag)
        for verb, parser in sub.choices.items()
        for action in parser._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    ]
    assert len(flags) >= 20
    missing = [
        "%s %s" % (verb, flag)
        for verb, flag in flags
        if not re.search(r"(?<![\w-])%s(?![\w-])" % re.escape(flag), verbs)
    ]
    assert not missing, "README Verbs omits: %s" % ", ".join(missing)
