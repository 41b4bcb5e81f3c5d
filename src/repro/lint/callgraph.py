"""Whole-tree class index with receiver-type inference.

The fingerprint-closure pass (:mod:`repro.lint.fingerprint`) must know,
for an attribute read ``x.attr`` anywhere in the tree, which classes
``x`` may be an instance of.  This module answers that statically,
without importing any code:

* **Indexing** — every module-level function and every class (with its
  methods, base classes, dataclass fields and best-effort attribute
  types) across all parsed files.  Classes are indexed by *name*; a
  name collision resolves to every candidate (conservative union).
* **Receiver-type inference** — an expression is typed from, in order:
  ``self`` (the enclosing class and its MRO), parameter annotations,
  local-variable annotations and simple assignment chains
  (``cfg = self.config``), class attribute types (``self.config:
  BanScenarioConfig`` in ``__init__`` or a class-body ``AnnAssign``),
  constructor calls (``x = NodeSpec()``) and declared return types.
  ``Optional[...]``/string annotations are unwrapped; container
  annotations deliberately resolve to nothing (an element type is not
  the receiver's type).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .engine import FileContext

def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def annotation_class_names(annotation: Optional[ast.AST]
                           ) -> Tuple[str, ...]:
    """Class names an annotation resolves an *instance* to.

    ``Optional["SpanTracer"]`` -> ``("SpanTracer",)``;
    ``Union[A, B]`` -> ``("A", "B")``; containers, ``Callable`` and
    ``None`` resolve to nothing.  String annotations are re-parsed.
    """
    if annotation is None:
        return ()
    if isinstance(annotation, ast.Constant):
        if not isinstance(annotation.value, str):
            return ()
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return ()
    if isinstance(annotation, ast.Subscript):
        head = _dotted(annotation.value)
        tail = (head or "").split(".")[-1]
        if tail in ("Optional", "Union"):
            inner = annotation.slice
            elements = (inner.elts if isinstance(inner, ast.Tuple)
                        else [inner])
            names: List[str] = []
            for element in elements:
                names.extend(annotation_class_names(element))
            return tuple(names)
        return ()  # containers / generics: element type is not the value
    if isinstance(annotation, ast.BinOp) \
            and isinstance(annotation.op, ast.BitOr):  # X | None
        return (annotation_class_names(annotation.left)
                + annotation_class_names(annotation.right))
    name = _dotted(annotation)
    if name is None:
        return ()
    tail = name.split(".")[-1]
    if tail in ("None", "Any", "object", "Callable", "Sequence", "List",
                "Dict", "Tuple", "Set", "FrozenSet", "Iterable",
                "Iterator", "Mapping", "MutableMapping", "Type",
                "str", "int", "float", "bool", "bytes"):
        return ()
    return (tail,)


@dataclass
class FunctionNode:
    """One function or method definition in the tree."""

    qualname: str  #: ``module_path::Class.method`` / ``module_path::f``
    module_path: str
    class_name: Optional[str]
    name: str
    node: ast.AST  #: the FunctionDef / AsyncFunctionDef
    ctx: FileContext

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 1)


@dataclass
class ClassNode:
    """One class definition with its statically harvested shape."""

    name: str
    module_path: str
    node: ast.ClassDef
    ctx: FileContext
    #: Base-class names (last dotted component), in declaration order.
    bases: Tuple[str, ...] = ()
    methods: Dict[str, FunctionNode] = field(default_factory=dict)
    #: Property-decorated method names.
    properties: Set[str] = field(default_factory=set)
    #: ``attr -> candidate class names`` from annotations/constructors.
    attr_types: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Class-body ``AnnAssign`` fields (dataclass field candidates),
    #: excluding ``ClassVar``.
    ann_fields: Dict[str, ast.AnnAssign] = field(default_factory=dict)
    #: ``ClassVar``-annotated names.
    classvars: Set[str] = field(default_factory=set)
    is_dataclass: bool = False


def _is_classvar(annotation: ast.AST) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    name = _dotted(target)
    return name is not None and name.split(".")[-1] == "ClassVar"


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = _dotted(target)
        if name is not None and name.split(".")[-1] == "dataclass":
            return True
    return False


def _is_property(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        name = _dotted(decorator)
        if name is not None and name.split(".")[-1] in (
                "property", "cached_property"):
            return True
    return False


class CallGraph:
    """The whole-tree class and function index."""

    def __init__(self) -> None:
        #: ``qualname -> FunctionNode`` for every function in the tree.
        self.functions: Dict[str, FunctionNode] = {}
        #: ``class name -> [ClassNode, ...]`` (collisions keep all).
        self.classes: Dict[str, List[ClassNode]] = {}
        #: ``module-level function name -> [qualname, ...]``.
        self.module_functions: Dict[str, List[str]] = {}
        self._env_cache: Dict[str, Dict[str, Tuple[str, ...]]] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, contexts: Sequence[FileContext]) -> "CallGraph":
        graph = cls()
        for ctx in contexts:
            graph._index_file(ctx)
        return graph

    def _index_file(self, ctx: FileContext) -> None:
        for stmt in ctx.tree.body:  # type: ignore[attr-defined]
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(ctx, stmt, class_node=None)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(ctx, stmt)

    def _index_function(self, ctx: FileContext, node: ast.AST,
                        class_node: Optional[ClassNode]) -> None:
        name = node.name  # type: ignore[attr-defined]
        if class_node is None:
            qualname = f"{ctx.module_path}::{name}"
        else:
            qualname = f"{ctx.module_path}::{class_node.name}.{name}"
        function = FunctionNode(
            qualname=qualname, module_path=ctx.module_path,
            class_name=class_node.name if class_node else None,
            name=name, node=node, ctx=ctx)
        self.functions[qualname] = function
        if class_node is None:
            self.module_functions.setdefault(name, []).append(qualname)
        else:
            class_node.methods[name] = function
            if _is_property(node):
                class_node.properties.add(name)

    def _index_class(self, ctx: FileContext, node: ast.ClassDef) -> None:
        bases = []
        for base in node.bases:
            base_name = _dotted(base)
            if base_name is not None:
                bases.append(base_name.split(".")[-1])
        info = ClassNode(name=node.name, module_path=ctx.module_path,
                         node=node, ctx=ctx, bases=tuple(bases),
                         is_dataclass=_is_dataclass_decorated(node))
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(ctx, stmt, class_node=info)
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                if _is_classvar(stmt.annotation):
                    info.classvars.add(stmt.target.id)
                else:
                    info.ann_fields[stmt.target.id] = stmt
                    info.attr_types[stmt.target.id] = \
                        annotation_class_names(stmt.annotation)
        # Harvest ``self.x: T = ...`` / ``self.x = Ctor()`` /
        # ``self.x = annotated_param`` from every method body (not just
        # __init__ — lazy attributes count too).
        for method in info.methods.values():
            params: Dict[str, Tuple[str, ...]] = {}
            arguments = method.node.args  # type: ignore[attr-defined]
            for arg in (arguments.posonlyargs + arguments.args
                        + arguments.kwonlyargs):
                names = annotation_class_names(arg.annotation)
                if names:
                    params[arg.arg] = names
            for sub in ast.walk(method.node):
                if isinstance(sub, ast.AnnAssign) \
                        and isinstance(sub.target, ast.Attribute) \
                        and isinstance(sub.target.value, ast.Name) \
                        and sub.target.value.id == "self":
                    names = annotation_class_names(sub.annotation)
                    if names:
                        info.attr_types.setdefault(sub.target.attr,
                                                   names)
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, ast.Attribute) \
                                and isinstance(target.value, ast.Name) \
                                and target.value.id == "self":
                            names = self._infer_ctor(sub.value)
                            if not names \
                                    and isinstance(sub.value, ast.Name):
                                names = params.get(sub.value.id, ())
                            if names:
                                info.attr_types.setdefault(target.attr,
                                                           names)
        self.classes.setdefault(node.name, []).append(info)

    def _infer_ctor(self, value: ast.AST) -> Tuple[str, ...]:
        """Class names when ``value`` is evidently a constructor call."""
        if isinstance(value, ast.BoolOp):  # ``store or SpanStore()``
            names: List[str] = []
            for operand in value.values:
                names.extend(self._infer_ctor(operand))
            return tuple(names)
        if isinstance(value, ast.IfExp):
            return self._infer_ctor(value.body) \
                + self._infer_ctor(value.orelse)
        if isinstance(value, ast.Call):
            name = _dotted(value.func)
            if name is not None:
                tail = name.split(".")[-1]
                if tail in self.classes:
                    return (tail,)
        return ()

    # -- lookup ---------------------------------------------------------

    def mro(self, class_name: str) -> List[ClassNode]:
        """Best-effort linearisation: the class, then bases, by name."""
        ordered: List[ClassNode] = []
        seen: Set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            for info in self.classes.get(current, ()):
                ordered.append(info)
                queue.extend(info.bases)
        return ordered

    def _lookup_method(self, info: ClassNode,
                       method: str) -> Optional[FunctionNode]:
        for candidate in self.mro(info.name):
            if method in candidate.methods:
                return candidate.methods[method]
        return None

    def lookup_attr_types(self, class_name: str,
                          attr: str) -> Tuple[str, ...]:
        """Candidate types of ``attr`` on ``class_name`` (MRO walk)."""
        for info in self.mro(class_name):
            if attr in info.attr_types:
                return info.attr_types[attr]
        return ()

    def class_attr_names(self, class_name: str
                         ) -> Tuple[Set[str], Set[str], Set[str]]:
        """``(fields, methods+properties, classvars)`` over the MRO of
        ``class_name``."""
        fields: Set[str] = set()
        callables: Set[str] = set()
        classvars: Set[str] = set()
        for info in self.mro(class_name):
            fields.update(info.ann_fields)
            callables.update(info.methods)
            callables.update(info.properties)
            classvars.update(info.classvars)
        return fields, callables, classvars

    # -- receiver typing ------------------------------------------------

    def local_env(self, function: FunctionNode
                   ) -> Dict[str, Tuple[str, ...]]:
        """``local name -> candidate class names`` for one function.

        Parameters come from annotations; locals from ``AnnAssign``,
        constructor calls, and one-step aliasing of typed attributes
        (``cfg = self.config``).  Flow-insensitive: the union over the
        whole body.
        """
        cached = self._env_cache.get(function.qualname)
        if cached is not None:
            return cached
        env: Dict[str, Tuple[str, ...]] = {}
        node = function.node
        arguments = node.args  # type: ignore[attr-defined]
        for arg in (arguments.posonlyargs + arguments.args
                    + arguments.kwonlyargs):
            if arg.arg == "self" and function.class_name is not None:
                env["self"] = (function.class_name,)
            elif arg.annotation is not None:
                names = annotation_class_names(arg.annotation)
                if names:
                    env[arg.arg] = names
        changed = True
        passes = 0
        while changed and passes < 4:  # alias chains settle quickly
            changed = False
            passes += 1
            for sub in ast.walk(node):
                target_name: Optional[str] = None
                value: Optional[ast.AST] = None
                if isinstance(sub, ast.AnnAssign) \
                        and isinstance(sub.target, ast.Name):
                    target_name = sub.target.id
                    names = annotation_class_names(sub.annotation)
                    if names and env.get(target_name) != names:
                        env[target_name] = names
                        changed = True
                    continue
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                        and isinstance(sub.targets[0], ast.Name):
                    target_name = sub.targets[0].id
                    value = sub.value
                if target_name is None or value is None:
                    continue
                names = self.expr_types(value, env)
                if names and env.get(target_name) != names:
                    env[target_name] = names
                    changed = True
        self._env_cache[function.qualname] = env
        return env

    def expr_types(self, value: ast.AST,
                    env: Dict[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """Candidate class names of an expression under ``env``."""
        if isinstance(value, ast.Name):
            return env.get(value.id, ())
        if isinstance(value, ast.Attribute):
            base_types = self.expr_types(value.value, env)
            found: List[str] = []
            for base in base_types:
                found.extend(self.lookup_attr_types(base, value.attr))
            return tuple(dict.fromkeys(found))
        if isinstance(value, (ast.BoolOp, ast.IfExp)):
            operands = value.values if isinstance(value, ast.BoolOp) \
                else [value.body, value.orelse]
            found = []
            for operand in operands:
                found.extend(self.expr_types(operand, env))
            return tuple(dict.fromkeys(found))
        if isinstance(value, ast.Call):
            name = _dotted(value.func)
            if name is not None and name.split(".")[-1] in self.classes:
                return (name.split(".")[-1],)
            # Return-annotation propagation: the type of
            # ``registry.state_timer(...)`` is state_timer's declared
            # return type.
            found = []
            if isinstance(value.func, ast.Attribute):
                for base in self.expr_types(value.func.value, env):
                    for info in self.classes.get(base, ()):
                        method = self._lookup_method(info,
                                                     value.func.attr)
                        if method is not None:
                            found.extend(annotation_class_names(
                                method.node.returns))  # type: ignore
            elif isinstance(value.func, ast.Name):
                for qualname in self.module_functions.get(
                        value.func.id, ()):
                    target = self.functions[qualname]
                    found.extend(annotation_class_names(
                        target.node.returns))  # type: ignore
            return tuple(dict.fromkeys(found))
        return ()


def build_call_graph(contexts: Sequence[FileContext]) -> CallGraph:
    """Build the whole-tree index over the parsed context set."""
    return CallGraph.build(contexts)


__all__ = [
    "CallGraph",
    "ClassNode",
    "FunctionNode",
    "annotation_class_names",
    "build_call_graph",
]
