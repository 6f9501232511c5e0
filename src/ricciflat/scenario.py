"""Scenario definitions: what to solve, at which orders, with which checks.

A scenario comes from CLI flags, from a sectioned key=value file, or both.
One precedence rule joins them, ``apply_overrides``: every field that a flag
sets wins over the file, the check selection included.  Each file key is one
row of ``FILE_KEYS`` (section, key, field, converter); a value its converter
refuses, like ``M = abc`` or ``no_timestamp = maybe``, raises
``InvalidInputError`` naming the key.

Metric sources are either a built-in name with positional parameters
(``fubini_study_chart:1,1.0``), checked for count and type by
``geometry.builtin_metric``, or inline polynomial entries in
the real coordinates x1..xn, y1..yn, parsed by a small expression grammar:
sums, differences, products, integer powers, decimal literals and the
imaginary unit ``i``.  Entries are given for i <= j; the lower triangle is
filled by conjugation, and an explicitly given lower entry must agree with
the conjugate of its mirror.  A file that gives both sources is refused, and
so is an ``n`` other than the built-in metric's dimension.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace

from .errors import InvalidInputError
from .geometry import (
    HermitianJetMatrix,
    InitialData,
    builtin_metric,
)
from .jets import Jet, context, jet_conj, max_coeff_diff
from .solver import SolverConfig


@dataclass(frozen=True)
class Scenario:
    metric: str | None = None            # builtin spec "name:params"
    metric_entries: dict = field(default_factory=dict)  # {(i,j): expression}
    metric_n: int | None = None
    c: float = 1.0
    t_order: int = 8
    space_degree: int = 12
    radius: float = 0.2
    tolerance: float = 1e-9
    checks: tuple[str, ...] = ()
    perturb: str | None = None
    out_dir: str = "ricciflat-out"
    no_timestamp: bool = False
    label: str = "scenario"

    def initial_data(self) -> InitialData:
        if self.metric:
            name, params = parse_metric_spec(self.metric)
            initial = builtin_metric(name, params, self.space_degree)
            if self.metric_n not in (None, initial.n):
                raise InvalidInputError(
                    f"[metric] n = {self.metric_n} disagrees with {self.metric}, "
                    f"of dimension {initial.n}"
                )
            return initial
        if self.metric_entries:
            return inline_metric(
                self.metric_entries, self.metric_n, self.space_degree
            )
        raise InvalidInputError("scenario has no metric source")

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            c=self.c,
            t_order=self.t_order,
            tolerance=self.tolerance,
        )

    def as_dict(self) -> dict:
        """Every field but the output settings; metric entries keyed "i,j" from 1."""
        d = dict(vars(self), checks=list(self.checks))
        d["metric_entries"] = {f"{i+1},{j+1}": e for (i, j), e in self.metric_entries.items()}
        del d["out_dir"], d["no_timestamp"]
        return d


ALL_CHECKS = ("system", "consequence", "laplacian", "curvature", "smoothness")


def parse_metric_spec(spec: str) -> tuple[str, list]:
    """Split ``name:p1,p2,...`` into the name and numeric parameters.

    Product metrics separate their factor specs with ``|``:
    ``product:fubini_study_chart:1,1.0|flat:1``.
    """
    spec = spec.strip()
    if spec.startswith("product:"):
        factors = []
        for part in spec[len("product:") :].split("|"):
            name, params = parse_metric_spec(part)
            factors.append({"name": name, "params": params})
        return "product", factors
    if ":" in spec:
        name, rest = spec.split(":", 1)
        params = [_number(tok) for tok in rest.split(",") if tok != ""]
    else:
        name, params = spec, []
    return name.strip(), params


def _number(tok: str):
    tok = tok.strip()
    try:
        if re.fullmatch(r"[+-]?\d+", tok):
            return int(tok)
        return float(tok)
    except ValueError as exc:
        raise InvalidInputError(f"bad numeric parameter {tok!r}") from exc


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

_ENTRY_RE = re.compile(r"h_(\d+)_(\d+)$")


def _check_names(text: str) -> tuple[str, ...]:
    names = tuple(t.strip() for t in text.split(",") if t.strip())
    bad = [t for t in names if t not in ALL_CHECKS]
    if bad:
        raise ValueError(f"unknown checks {bad}; valid: {ALL_CHECKS}")
    return names


def _boolean(text: str) -> bool:
    import configparser

    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError("not a boolean") from None


# (section, key, Scenario field, converter): every fixed key a file may set.
FILE_KEYS = (
    ("metric", "builtin", "metric", str.strip),
    ("metric", "n", "metric_n", int),
    ("solver", "c", "c", float),
    ("solver", "M", "t_order", int),
    ("solver", "D", "space_degree", int),
    ("solver", "R", "radius", float),
    ("solver", "tol", "tolerance", float),
    ("checks", "run", "checks", _check_names),
    ("output", "dir", "out_dir", str.strip),
    ("output", "no_timestamp", "no_timestamp", _boolean),
)


def load_scenario(path: str, flags=None) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return apply_overrides(parse_scenario_text(text, label=path), flags)


def parse_scenario_text(text: str, label: str = "inline") -> Scenario:
    import configparser  # here, not at module level: most runs read no file

    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise InvalidInputError(f"unparseable scenario file: {exc}") from exc

    kw: dict = {"label": label}
    for section, key, name, conv in FILE_KEYS:
        if cp.has_option(section, key):
            value = cp[section][key]
            try:
                kw[name] = conv(value)
            except ValueError as exc:
                raise InvalidInputError(f"[{section}] {key} = {value!r}: {exc}") from exc
    if cp.has_section("metric"):
        entries = {}
        for key, value in cp["metric"].items():
            m = _ENTRY_RE.match(key)
            if m:
                i, j = int(m.group(1)) - 1, int(m.group(2)) - 1
                if i < 0 or j < 0:
                    raise InvalidInputError(f"metric entry indices start at 1: {key}")
                entries[(i, j)] = value.strip()
        if entries and kw.get("metric"):
            keys = ", ".join(f"h_{i + 1}_{j + 1}" for i, j in entries)
            raise InvalidInputError(f"[metric] builtin and {keys} are two metric sources: give one")
        if entries:
            kw["metric_entries"] = entries
    return Scenario(**kw)


def apply_overrides(sc: Scenario, flags) -> Scenario:
    """The one precedence rule: each Scenario field that ``flags`` (an
    argparse namespace whose option dests are field names) sets to a value
    other than None replaces the scenario's own."""
    given = {f.name: getattr(flags, f.name, None) for f in fields(Scenario)}
    return replace(sc, **{k: v for k, v in given.items() if v is not None})


# ---------------------------------------------------------------------------
# Inline metric entries
# ---------------------------------------------------------------------------


def inline_metric(entries: dict, n: int | None, cap: int) -> InitialData:
    if n is None:
        n = 1 + max(max(i, j) for i, j in entries)
    ctx = context(n, cap)
    parsed = {}
    for (i, j), expr in entries.items():
        if i >= n or j >= n:
            raise InvalidInputError(
                f"metric entry h_{i+1}_{j+1} outside dimension n={n}"
            )
        parsed[(i, j)] = parse_polynomial(expr, ctx)

    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            given = parsed.get((i, j))
            mirror = parsed.get((j, i))
            if given is None and mirror is None:
                if i == j:
                    raise InvalidInputError(f"missing diagonal entry h_{i+1}_{j+1}")
                rows[i][j] = ctx.zero()
            elif given is not None:
                rows[i][j] = given
            else:
                rows[i][j] = jet_conj(mirror)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in parsed and (j, i) in parsed:
                gap = max_coeff_diff(parsed[(i, j)], jet_conj(parsed[(j, i)]))
                if gap > 1e-12:
                    raise InvalidInputError(
                        f"entries h_{i+1}_{j+1} and h_{j+1}_{i+1} are not "
                        f"conjugate (gap {gap:.3e})"
                    )
    return InitialData(h=HermitianJetMatrix(rows), name="inline")


# ---------------------------------------------------------------------------
# Polynomial expression grammar
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)|(?P<name>[A-Za-z]\w*)"
    r"|(?P<op>[()+\-*^]))"
)


def parse_polynomial(src: str, ctx) -> Jet:
    """Parse +, -, *, integer ^, decimals, coordinates x1..yn and the
    imaginary unit i into a jet."""
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m or m.end() == pos:
            raise InvalidInputError(f"bad character in expression at: {src[pos:]!r}")
        tokens.append(m)
        pos = m.end()
    stream = _TokenStream(tokens, src)
    jet = _parse_sum(stream, ctx)
    if not stream.done:
        raise InvalidInputError(f"trailing input in expression: {stream.rest()!r}")
    return jet


class _TokenStream:
    def __init__(self, tokens, src):
        self.tokens = tokens
        self.src = src
        self.i = 0

    @property
    def done(self):
        return self.i >= len(self.tokens)

    def peek(self):
        return None if self.done else self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def rest(self):
        return "" if self.done else self.src[self.tokens[self.i].start() :]


def _parse_sum(s: _TokenStream, ctx) -> Jet:
    acc = _parse_product(s, ctx)
    while not s.done:
        tok = s.peek()
        op = tok.group("op")
        if op == "+":
            s.next()
            acc = acc + _parse_product(s, ctx)
        elif op == "-":
            s.next()
            acc = acc - _parse_product(s, ctx)
        else:
            break
    return acc


def _parse_product(s: _TokenStream, ctx) -> Jet:
    acc = _parse_power(s, ctx)
    while not s.done and s.peek().group("op") == "*":
        s.next()
        acc = acc * _parse_power(s, ctx)
    return acc


def _parse_power(s: _TokenStream, ctx) -> Jet:
    # A sign takes one whole power and nothing after it: -x1^2^2 is refused.
    if not s.done and s.peek().group("op") in ("-", "+"):
        sign = s.next().group("op")
        inner = _parse_power(s, ctx)
        return -inner if sign == "-" else inner
    base = _parse_atom(s, ctx)
    if not s.done and s.peek().group("op") == "^":
        s.next()
        tok = s.peek()
        if tok is None or tok.group("num") is None or "." in tok.group("num"):
            raise InvalidInputError("exponent must be a nonnegative integer")
        s.next()
        k = int(tok.group("num"))
        out = ctx.constant(1.0)
        for _ in range(k):
            out = out * base
        return out
    return base


def _parse_atom(s: _TokenStream, ctx) -> Jet:
    tok = s.peek()
    if tok is None:
        raise InvalidInputError("unexpected end of expression")
    if tok.group("op") == "(":
        s.next()
        inner = _parse_sum(s, ctx)
        closing = s.peek()
        if closing is None or closing.group("op") != ")":
            raise InvalidInputError("unbalanced parentheses")
        s.next()
        return inner
    if tok.group("num") is not None:
        s.next()
        return ctx.constant(float(tok.group("num")))
    name = tok.group("name")
    if name is None:
        raise InvalidInputError(f"unexpected token near {s.rest()!r}")
    s.next()
    if name == "i":
        return ctx.constant(1j)
    m = re.fullmatch(r"([xy])(\d+)", name)
    if not m:
        raise InvalidInputError(f"unknown symbol {name!r} (use x1..yn or i)")
    idx = int(m.group(2)) - 1
    if idx < 0 or idx >= ctx.n:
        raise InvalidInputError(
            f"coordinate {name} outside dimension n={ctx.n}"
        )
    return ctx.x(idx) if m.group(1) == "x" else ctx.y(idx)
