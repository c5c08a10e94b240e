"""Every top-level function and class of the package has a reader outside
the tests, every defaulted parameter a caller outside the tests that
passes it, every parameter a read in its own function, and every
dataclass field and attribute that an `__init__` sets a reader outside
the tests: code that only tests read is deleted, not kept for them."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "semsched").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def read_names(tree):
    """Every name the module reads: names, attributes, imported names and
    string constants (the benchmark wraps functions by name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_top_level_definition_is_read_outside_the_tests():
    reads = set()
    for path in READERS:
        reads.update(read_names(ast.parse(path.read_text(encoding="utf-8"))))
    defined = {
        f"{path.stem}.{node.name}": node.name
        for path in PACKAGE
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert len(defined) > 50  # the scan found the package
    unread = sorted(where for where, name in defined.items() if name not in reads)
    assert unread == []


def defaulted_parameters(tree):
    """(callee name, parameter name, position or None) of every parameter
    with a default. A method's position leaves out self, and a class's
    __init__ is called by the class's name."""
    for owner in ast.walk(tree):
        if isinstance(owner, ast.ClassDef):
            methods = [n for n in owner.body if isinstance(n, ast.FunctionDef)]
            defs = [(owner.name if m.name == "__init__" else m.name, m, 1)
                    for m in methods]
        elif isinstance(owner, ast.Module):
            defs = [(n.name, n, 0) for n in owner.body
                    if isinstance(n, ast.FunctionDef)]
        elif isinstance(owner, ast.FunctionDef):
            defs = [(n.name, n, 0) for n in owner.body
                    if isinstance(n, ast.FunctionDef)]
        else:
            continue
        for name, fn, skip in defs:
            positional = fn.args.posonlyargs + fn.args.args
            for i in range(len(positional) - len(fn.args.defaults), len(positional)):
                yield name, positional[i].arg, i - skip
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


def passes(call, parameter, position):
    """Whether `call` may pass the parameter: by keyword, by position, or
    through *args or **kwargs."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    calls: dict[str, list[ast.Call]] = {}
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    params = [
        (f"{path.stem}.{name}", parameter, position, name)
        for path in PACKAGE
        for name, parameter, position in defaulted_parameters(
            ast.parse(path.read_text(encoding="utf-8"))
        )
    ]
    assert len(params) > 10  # the scan found the package's defaults
    unpassed = sorted(
        f"{where}({parameter})"
        for where, parameter, position, name in params
        if not any(passes(c, parameter, position) for c in calls.get(name, ()))
    )
    assert unpassed == []


def is_dataclass(cls):
    for decorator in cls.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if "dataclass" in (getattr(func, "id", None), getattr(func, "attr", None)):
            return True
    return False


def instance_attributes(tree):
    """(class name, attribute) of every dataclass field and every
    `self.<attribute> = ...` in an `__init__`, such as an exception's."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if is_dataclass(cls):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    yield cls.name, node.target.id
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and method.name == "__init__":
                for node in ast.walk(method):
                    if (isinstance(node, ast.Attribute)
                            and isinstance(node.ctx, ast.Store)
                            and getattr(node.value, "id", None) == "self"):
                        yield cls.name, node.attr


def read_attributes(tree):
    """Every attribute name the module reads (an assignment target is no
    read), and string constants, which `getattr` reads by."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_field_and_init_attribute_is_read_outside_the_tests():
    # by name, as above: a field counts as read when any object's
    # attribute of that name is read
    reads = set()
    for path in READERS:
        reads.update(read_attributes(ast.parse(path.read_text(encoding="utf-8"))))
    attributes = [
        f"{path.stem}.{cls}.{attribute}"
        for path in PACKAGE
        for cls, attribute in instance_attributes(
            ast.parse(path.read_text(encoding="utf-8"))
        )
    ]
    assert len(attributes) > 50  # the scan found the dataclasses
    assert "mdp.NotConverged.result" in attributes  # and the __init__ ones
    unread = sorted(a for a in attributes if a.rsplit(".", 1)[1] not in reads)
    assert unread == []


def unread_parameters(tree):
    """(function name, parameter) of every parameter, self and cls aside,
    that its function's body never reads; a read in a nested function
    counts."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        reads = {
            node.id
            for statement in body
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        for param in params:
            if param.arg not in reads | {"self", "cls"}:
                yield getattr(fn, "name", "<lambda>"), param.arg


def test_every_parameter_is_read_by_its_function():
    source = "def f(a, b, *c, d, **e):\n    return lambda x, y: a + c + y\n"
    assert sorted(unread_parameters(ast.parse(source))) == [
        ("<lambda>", "x"), ("f", "b"), ("f", "d"), ("f", "e"),
    ]
    # the benchmark harness calls some functions by their signature, and
    # only a change to the benchmark may change its calls
    benchmark_calls = {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
    }
    unread = sorted(
        f"{path.stem}.{name}({param})"
        for path in PACKAGE
        for name, param in unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
        if name not in benchmark_calls
    )
    assert unread == []
