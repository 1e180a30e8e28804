"""The law kernel: compiles laws of ``algebra.LAWS`` into Python
functions over 0-based row tables.  ``algebra`` imports it on first use,
so importing the package compiles none of it."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    from .algebra import Law, Term

_TABLE = {"under": "u", "over": "o", "virt": "v"}


def compile_laws(laws: Sequence[Law], witness: bool) -> Callable:
    """Python function ``(n, u, o, v, p)`` evaluating ``laws`` over 0-based
    row tables u, o, v and the 0-based kink map p.

    With ``witness`` (one law) it returns the lexicographically first
    failing assignment, 1-based, or None; otherwise True iff every law
    holds.  Laws sharing their variables share one loop nest, fewest
    variables first, and every subterm is computed in the outermost loop
    that binds all of its variables.
    """
    lines = ["def laws(n, u, o, v, p):", " R = range(n)"]
    groups: dict[str, list[Law]] = {}
    for law in sorted(laws, key=lambda law: len(law.variables)):
        groups.setdefault(law.variables, []).append(law)
    for g, (variables, group) in enumerate(groups.items()):
        depth = len(variables)
        hoisted: list[list[str]] = [[] for _ in range(depth)]
        names: dict[Term, str] = {}

        def level(term):
            if isinstance(term, str):
                return variables.index(term) + 1
            return max(level(a) for a in term[1:])

        def bind(key, text):
            # hoist out of the inner loop, once per subterm
            lv = level(key)
            if lv == depth:
                return text
            if key not in names:
                names[key] = f"t{g}_{len(names)}"
                hoisted[lv - 1].append(f"{names[key]} = {text}")
            return names[key]

        def code(term):
            if isinstance(term, str):
                return term
            if term[0] == "pi":
                return bind(term, f"p[{code(term[1])}]")
            op, a, b = term
            row = bind((op, a), f"{_TABLE[op]}[{code(a)}]")
            return bind(term, f"{row}[{code(b)}]")

        point = ", ".join(f"{var} + 1" for var in variables) + ","
        body, after = [], []
        tests = []
        for k, law in enumerate(group):
            left, right = code(law.left), code(law.right)
            if law.kind == "equation":
                tests.append(f"{left} != {right}")
                continue
            seen = f"seen{g}_{k}"
            lines.append(f" {seen} = set()")
            if witness:
                body += [f"image = ({left}, {right})",
                         f"if image in {seen}: return ({point})",
                         f"{seen}.add(image)"]
            else:
                body.append(f"{seen}.add(({left}, {right}))")
                after.append(f" if len({seen}) != {' * '.join(['n'] * depth)}: return False")
        if tests:
            fail = f"return ({point})" if witness else "return False"
            body.insert(0, f"if {' or '.join(tests)}: {fail}")
        for i, var in enumerate(variables):
            lines.append(" " * (i + 1) + f"for {var} in R:")
            lines += [" " * (i + 2) + stmt for stmt in hoisted[i]]
        lines += [" " * (depth + 1) + stmt for stmt in body]
        lines += after
    lines.append(" return None" if witness else " return True")
    scope: dict = {}
    source = "\n".join(lines) + "\n"
    exec(compile(source, f"<laws {' '.join(law.family for law in laws)}>", "exec"), scope)
    return scope["laws"]
