#!/usr/bin/env python3
"""slick-analyzer: semantic static analysis for the SlickDeque hot paths.

The regex lint (tools/lint/slick_lint.py) is the fast textual pre-check; this
analyzer is the semantic layer behind it.  It understands functions, call
graphs, and statements, so it can answer questions the regex lint cannot:

  realtime-purity    A function annotated SLICK_REALTIME (src/util/
                     annotations.h) transitively reaches heap allocation, a
                     mutex/condition_variable, a blocking call, or `throw`.
                     The walk stops at SLICK_REALTIME_ALLOW(reason); a bare
                     ALLOW with an empty reason is itself a finding
                     (allow-without-reason).
  claim-publish      A function calls TryClaimPush/TryClaimPop/ClaimPop but
                     no path reaches the matching PublishPush/ReleasePop and
                     the claim handle does not escape (returned or passed
                     on).  This is the silent-wedge bug class the MPMC model
                     checker can only find per-scenario.
  ignored-result     A statement discards the result of a must-use call:
                     Try*/try_*/Poll*/poll_*/Offer/ClaimPop/ReadFramed, or
                     any repo function returning FrameError/Admission/Status
                     or carrying SLICK_NODISCARD.  `(void)` casts suppress.
  nodiscard-missing  A function whose name or return type makes it must-use
                     does not carry SLICK_NODISCARD (or [[nodiscard]]).
  atomic-order       An atomic member call (load/store/fetch_*/exchange/
                     compare_exchange_*/test_and_set/wait) without an
                     explicit std::memory_order argument.  Statement-level:
                     catches calls split across lines and calls through
                     `->`, the regex lint's documented blind spots.

Two frontends produce the same model (functions, call edges, impurity sites,
atomic ops, claim/publish events, statement-position calls):

  * clang  — clang.cindex over the exported compile_commands.json.  Used
             when the `clang` python module and a compile DB are available
             (CI installs python3-clang).  Resolves types, typedefs, and
             `auto` precisely.
  * tokens — a pure-python C++ token-level parser.  No dependencies; runs
             everywhere (it gates the fixture corpus in ctest).  Resolution
             is name-based: a call whose name matches a repo-defined
             function becomes a call-graph edge (repo definitions shadow
             the std lists); otherwise the name is classified against
             curated allocation/blocking/lock lists.

Suppression: `// slick-analyze: allow(<check-id>)` on the finding line or
the line above, mirroring the lint's `slick-lint: allow(...)`.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.

See DESIGN.md §15 for the architecture and the annotation policy.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import re
import sys
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Knowledge base shared by both frontends.
# --------------------------------------------------------------------------

# Call names that allocate when they do NOT resolve to a repo-defined
# function.  Deliberately excludes collision-prone names that the repo
# defines with non-allocating semantics (insert, erase, clear, close, read,
# write, open) — the clang frontend resolves those precisely; the token
# frontend leans on repo-shadowing plus this curated list.
ALLOC_CALLS = {
    "malloc", "calloc", "realloc", "aligned_alloc", "strdup",
    "make_unique", "make_shared", "allocate",
    "push_back", "emplace_back", "emplace", "emplace_front", "push_front",
    "resize", "reserve", "append", "assign", "substr", "to_string",
    "stoi", "stol", "stoul", "stoull", "stod",
}

# Bare identifiers that mean a lock/CV lives in this function.
LOCK_TYPES = {
    "mutex", "recursive_mutex", "shared_mutex", "timed_mutex",
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
    "condition_variable", "condition_variable_any",
}
LOCK_CALLS = {"lock", "try_lock", "unlock", "lock_shared", "unlock_shared"}

# Call names that block or deschedule.
BLOCKING_CALLS = {
    "wait", "wait_for", "wait_until", "notify_all_at_thread_exit",
    "yield", "sleep_for", "sleep_until", "nanosleep", "usleep", "sleep",
    "epoll_wait", "ppoll", "poll", "select", "recv", "send", "sendmsg",
    "recvmsg", "accept", "accept4", "connect", "futex",
}

ATOMIC_OPS = {
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong", "test_and_set", "wait", "notify_one",
    "notify_all",
}
# Atomic ops that take no memory_order argument do not need one;
# notify_one/notify_all are ordering-free by spec.
ATOMIC_ORDER_FREE = {"notify_one", "notify_all"}

# Must-use call-name patterns (checked against the base name at call sites
# and definition sites).
MUSTUSE_NAME_RE = re.compile(r"^(?:Try|Poll)[A-Z]|^(?:try|poll)_")
MUSTUSE_EXACT = {"Offer", "ClaimPop", "ReadFramed"}
# Return types whose values must not be dropped.
MUSTUSE_TYPES = {"FrameError", "Admission", "Status"}

CLAIM_CALLS = {
    "TryClaimPush": "push",
    "TryClaimPop": "pop",
    "ClaimPop": "pop",
}
PUBLISH_CALLS = {"PublishPush": "push", "ReleasePop": "pop"}

CPP_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default",
    "return", "break", "continue", "goto", "sizeof", "alignof", "alignas",
    "decltype", "typeid", "new", "delete", "throw", "try", "catch",
    "static_assert", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "co_await", "co_yield", "co_return", "requires",
    "noexcept", "const", "constexpr", "consteval", "constinit", "volatile",
    "inline", "static", "extern", "thread_local", "mutable", "virtual",
    "explicit", "friend", "public", "private", "protected", "operator",
    "template", "typename", "using", "namespace", "class", "struct",
    "union", "enum", "auto", "void", "bool", "char", "short", "int",
    "long", "float", "double", "signed", "unsigned", "true", "false",
    "nullptr", "this", "override", "final", "defined",
}

ALLOW_RE = re.compile(r"slick-analyze:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

CHECK_IDS = (
    "realtime-purity", "allow-without-reason", "claim-publish",
    "ignored-result", "nodiscard-missing", "atomic-order",
)


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def key(self):
        return (self.path, self.line, self.rule, self.message)


@dataclass
class Impurity:
    kind: str          # alloc | lock | block | throw
    line: int
    detail: str


@dataclass
class CallSite:
    name: str
    line: int
    member: bool = False      # x.f() / p->f(): receiver unknown
    qual: str | None = None   # X::f(): explicit qualifier X


@dataclass
class AtomicOp:
    op: str
    line: int
    has_order: bool


@dataclass
class ClaimSite:
    kind: str          # push | pop
    name: str
    line: int
    var: str | None
    escaped: bool = False


@dataclass
class StmtCall:
    """A call in statement position whose result is discarded."""
    name: str
    line: int
    void_cast: bool    # preceded by a (void) cast → deliberate discard


@dataclass
class FuncInfo:
    name: str                  # base name (TryClaimPush)
    qname: str                 # qualified-ish (SpscRing::TryClaimPush)
    path: str
    line: int
    cls: str | None = None     # enclosing (or ::-qualified) class name
    realtime: bool = False
    allow_reason: str | None = None   # None = no ALLOW; "" = bare ALLOW
    nodiscard: bool = False
    return_tokens: tuple = ()
    calls: list = field(default_factory=list)
    impurities: list = field(default_factory=list)
    atomics: list = field(default_factory=list)
    claims: list = field(default_factory=list)
    publishes: dict = field(default_factory=lambda: {"push": 0, "pop": 0})
    stmt_calls: list = field(default_factory=list)


@dataclass
class Model:
    functions: list = field(default_factory=list)
    # base name -> [FuncInfo] for repo-shadow resolution
    by_name: dict = field(default_factory=dict)
    notices: list = field(default_factory=list)

    def add(self, fn):
        self.functions.append(fn)
        self.by_name.setdefault(fn.name, []).append(fn)


# --------------------------------------------------------------------------
# Token frontend: lexer.
# --------------------------------------------------------------------------

@dataclass
class Tok:
    kind: str   # ident | num | str | punct
    text: str
    line: int


TOK_RE = re.compile(
    r"""
      (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<rawstr>R"(?P<rsdelim>[^(\s]*)\((?:.|\n)*?\)(?P=rsdelim)")
    | (?P<string>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
    | (?P<ident>[A-Za-z_]\w*)
    | (?P<num>\.?[0-9](?:[\w.]|[eEpP][+-])*)
    | (?P<punct>->\*?|::|\[\[|\]\]|<<=|>>=|<=>|\.\.\.|<<|>>|<=|>=|==|!=
                |&&|\|\||\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|=|.)
    """,
    re.DOTALL | re.VERBOSE,
)


def strip_preprocessor(text: str) -> str:
    """Blank out preprocessor logical lines, preserving newlines."""
    out = []
    cont = False
    for line in text.split("\n"):
        if cont or line.lstrip().startswith("#"):
            cont = line.rstrip().endswith("\\")
            out.append("")
        else:
            cont = False
            out.append(line)
    return "\n".join(out)


def tokenize(text: str) -> list:
    text = strip_preprocessor(text)
    starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            starts.append(i + 1)
    toks = []
    for m in TOK_RE.finditer(text):
        line = bisect.bisect_right(starts, m.start())
        if m.lastgroup == "comment":
            continue
        kind = m.lastgroup
        txt = m.group()
        if kind == "rawstr":
            kind = "string"
        if kind == "punct" and txt.isspace():
            continue
        if txt.strip() == "":
            continue
        toks.append(Tok(kind if kind != "string" else "str", txt, line))
    return toks


def match_brace(toks, i):
    """toks[i] is '{'; return index just past the matching '}'."""
    depth = 0
    while i < len(toks):
        t = toks[i].text
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(toks)


def match_paren(toks, i):
    """toks[i] is '('; return index of the matching ')' (or len)."""
    depth = 0
    while i < len(toks):
        t = toks[i].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(toks)


def skip_template_args(toks, i):
    """toks[i] is '<'; best-effort skip of a template argument list.
    Returns index just past the matching '>', or None if it does not look
    like template arguments."""
    depth = 0
    j = i
    limit = i + 160
    while j < len(toks) and j < limit:
        t = toks[j].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif t in (";", "{", "}", "&&", "||"):
            return None
        elif t == "(":
            j = match_paren(toks, j)
        j += 1
    return None


# --------------------------------------------------------------------------
# Token frontend: scope parser.
# --------------------------------------------------------------------------

FUNC_TAIL_OK = {"const", "noexcept", "override", "final", "&", "&&", "try"}
FUNC_TAIL_REST = {":", "->", "requires"}   # everything after these is free-form


def find_function_candidate(header):
    """Return (name, param_open_idx, param_close_idx) for the function this
    header declares/defines, or None."""
    n = len(header)
    j = 0
    while j < n - 1:
        t = header[j]
        name = None
        pidx = None
        if t.kind == "ident" and t.text not in CPP_KEYWORDS:
            name = t.text
            if j > 0 and header[j - 1].text == "~":
                name = "~" + name
            k = j + 1
            if k < n and header[k].text == "<":
                past = skip_template_args(header, k)
                if past is not None and past < n and header[past].text == "(":
                    k = past
            if k < n and header[k].text == "(":
                pidx = k
        elif t.text == "operator":
            k = j + 1
            sym = ""
            # operator() / operator[] / operator== etc.
            if k + 1 < n and header[k].text == "(" and header[k + 1].text == ")":
                sym, k = "()", k + 2
            else:
                while k < n and header[k].kind == "punct" and header[k].text != "(":
                    sym += header[k].text
                    k += 1
                if k < n and header[k].kind == "ident" and not sym:
                    # conversion operator: operator bool ( )
                    sym = header[k].text
                    k += 1
            if k < n and header[k].text == "(":
                name, pidx = "operator" + sym, k
        if name is not None and pidx is not None:
            close = match_paren(header, pidx)
            if close < n or close == n - 1:
                tail = header[close + 1:] if close + 1 <= n else []
                if _tail_ok(tail):
                    return name, j, pidx, close
        j += 1
    return None


def _tail_ok(tail):
    i = 0
    n = len(tail)
    while i < n:
        t = tail[i].text
        if t in FUNC_TAIL_REST:
            return True
        if t == "noexcept":
            if i + 1 < n and tail[i + 1].text == "(":
                i = match_paren(tail, i + 1)
            i += 1
            continue
        if t in FUNC_TAIL_OK:
            i += 1
            continue
        if t == "=":
            return False   # = default / = delete / = 0
        return False
    return True


def header_annotations(header):
    """Extract SLICK_REALTIME / SLICK_REALTIME_ALLOW / nodiscard markers."""
    realtime = False
    allow = None
    nodiscard = False
    i = 0
    n = len(header)
    while i < n:
        t = header[i]
        if t.text == "SLICK_REALTIME":
            realtime = True
        elif t.text == "SLICK_REALTIME_ALLOW":
            allow = ""
            if i + 1 < n and header[i + 1].text == "(":
                close = match_paren(header, i + 1)
                parts = [x.text[1:-1] for x in header[i + 2:close]
                         if x.kind == "str"]
                allow = " ".join(parts)
                i = close
        elif t.text in ("SLICK_NODISCARD", "nodiscard"):
            nodiscard = True
        i += 1
    return realtime, allow, nodiscard


def classify_header(header):
    """Classify what a '{' opens.  Returns one of:
    ('namespace', name) ('class', name) ('function', cand) ('skip', None)
    ('absorb', None) — brace-init inside a ctor-init list, keep scanning."""
    h = list(header)
    # Strip leading template<...> groups.
    while h and h[0].text == "template":
        if len(h) > 1 and h[1].text == "<":
            past = skip_template_args(h, 1)
            if past is None:
                return ("skip", None)
            h = h[past:]
        else:
            h = h[1:]
    if not h:
        return ("skip", None)
    if h[0].text == "namespace":
        name = h[1].text if len(h) > 1 and h[1].kind == "ident" else ""
        return ("namespace", name)
    if h[0].text == "extern" and len(h) > 1 and h[1].kind == "str":
        return ("namespace", "")
    if any(t.text == "enum" for t in h[:3]):
        return ("skip", None)
    cand = find_function_candidate(h)
    if cand is not None:
        name, nidx, popen, pclose = cand
        tail = h[pclose + 1:]
        # A brace directly after an identifier inside a ctor-init list is a
        # member brace-init, not the function body.
        if any(t.text == ":" for t in tail) and header and \
                header[-1].kind == "ident":
            return ("absorb", None)
        return ("function", (name, h, popen, pclose))
    for i, t in enumerate(h):
        if t.text in ("class", "struct", "union"):
            j = i + 1
            while j < len(h) and (h[j].text in ("alignas",) or
                                  h[j].text == "[["):
                if h[j].text == "alignas" and j + 1 < len(h) and \
                        h[j + 1].text == "(":
                    j = match_paren(h, j + 1) + 1
                elif h[j].text == "[[":
                    while j < len(h) and h[j].text != "]]":
                        j += 1
                    j += 1
                else:
                    j += 1
            if j < len(h) and h[j].kind == "ident":
                return ("class", h[j].text)
            return ("skip", None)
    return ("skip", None)


class TokenFileParser:
    def __init__(self, path, text, model):
        self.path = path
        self.model = model
        self.toks = tokenize(text)

    def run(self):
        self.parse_scope(0, [])

    def parse_scope(self, i, scopes):
        toks = self.toks
        header = []
        n = len(toks)
        while i < n:
            t = toks[i]
            if t.text == "}":
                return i + 1
            if t.text == ";":
                self.classify_decl(header, scopes)
                header = []
                i += 1
                continue
            if t.text == ":" and header and header[-1].text in (
                    "public", "private", "protected"):
                header = []
                i += 1
                continue
            if t.text == "{":
                kind, payload = classify_header(header)
                if kind == "namespace":
                    i = self.parse_scope(i + 1, scopes + [("ns", payload)])
                    header = []
                elif kind == "class":
                    i = self.parse_scope(i + 1, scopes + [("cls", payload)])
                    header = []
                elif kind == "function":
                    name, h, popen, pclose = payload
                    end = match_brace(toks, i)
                    self.emit_function(name, h, toks[i + 1:end - 1], scopes,
                                       t.line)
                    i = end
                    header = []
                elif kind == "absorb":
                    end = match_brace(toks, i)
                    header.extend(toks[i:end])
                    i = end
                else:
                    i = match_brace(toks, i)
                    header = []
                continue
            header.append(t)
            i += 1
        return i

    def classify_decl(self, header, scopes):
        """A ';'-terminated statement at class/namespace scope: detect
        must-use declarations missing SLICK_NODISCARD."""
        if not header:
            return
        if header[0].text in ("using", "typedef", "friend", "template"):
            return
        if any(t.text == "=" for t in header):
            return   # = default / = delete / member initializers
        cand = find_function_candidate(header)
        if cand is None:
            return
        name, nidx, popen, pclose = cand
        ret = tuple(t.text for t in header[:nidx])
        fn = FuncInfo(name=name,
                      qname="::".join([s for _k, s in scopes if s] + [name]),
                      path=self.path, line=header[nidx].line,
                      cls=self._enclosing_cls(scopes, header, nidx),
                      return_tokens=ret)
        fn.realtime, fn.allow_reason, fn.nodiscard = header_annotations(header)
        self.check_mustuse_decl(fn)

    def check_mustuse_decl(self, fn):
        mustuse = bool(MUSTUSE_NAME_RE.search(fn.name)) or \
            fn.name in MUSTUSE_EXACT or \
            any(t in MUSTUSE_TYPES for t in fn.return_tokens)
        if mustuse:
            # Registered even when already SLICK_NODISCARD: the annotated
            # declaration is what exempts an out-of-class definition (which
            # cannot legally repeat the attribute) in check_nodiscard.
            self.model.add(fn)   # decl-only, used by nodiscard check

    @staticmethod
    def _enclosing_cls(scopes, header, nidx):
        """Class owning this function: an explicit X:: qualifier on an
        out-of-class definition wins, else the innermost class scope."""
        j = nidx
        if j >= 1 and header[j - 1].text == "~":
            j -= 1
        if j >= 2 and header[j - 1].text == "::":
            k = j - 2
            if header[k].text == ">":   # SpscRing<T>::foo
                depth = 0
                while k >= 0:
                    if header[k].text in (">", ">>"):
                        depth += 2 if header[k].text == ">>" else 1
                    elif header[k].text == "<":
                        depth -= 1
                        if depth == 0:
                            k -= 1
                            break
                    k -= 1
            if k >= 0 and header[k].kind == "ident":
                return header[k].text
        if scopes and scopes[-1][0] == "cls":
            return scopes[-1][1]
        return None

    def emit_function(self, name, header, body, scopes, line):
        cand = find_function_candidate(header)
        nidx = cand[1] if cand else 0
        fn = FuncInfo(name=name,
                      qname="::".join([s for _k, s in scopes if s] + [name]),
                      path=self.path, line=line,
                      cls=self._enclosing_cls(scopes, header, nidx),
                      return_tokens=tuple(t.text for t in header[:nidx]))
        fn.realtime, fn.allow_reason, fn.nodiscard = header_annotations(header)
        self.scan_body(fn, body)
        self.model.add(fn)

    # -- body scanning ----------------------------------------------------

    def scan_body(self, fn, body):
        n = len(body)
        claimed_vars = {}
        i = 0
        while i < n:
            t = body[i]
            if t.text == "throw" and (i + 1 >= n or body[i + 1].text != "("):
                fn.impurities.append(Impurity("throw", t.line, "throw"))
            elif t.text == "new":
                if i + 1 < n and (body[i + 1].kind == "ident" or
                                  body[i + 1].text == "("):
                    fn.impurities.append(Impurity("alloc", t.line, "new"))
            elif t.kind == "ident" and t.text in LOCK_TYPES:
                fn.impurities.append(
                    Impurity("lock", t.line, t.text))
            elif t.kind == "ident" and t.text not in CPP_KEYWORDS:
                i = self.scan_ident(fn, body, i, claimed_vars)
                continue
            i += 1
        # Escape analysis for claim handles.
        for c in fn.claims:
            if c.var and claimed_vars.get(c.var):
                c.escaped = True

    def scan_ident(self, fn, body, i, claimed_vars):
        """body[i] is a non-keyword identifier.  Detect calls, atomics,
        claims, statement-position discards.  Returns next index."""
        n = len(body)
        name = body[i].text
        k = i + 1
        if k < n and body[k].text == "<":
            past = skip_template_args(body, k)
            if past is not None and past < n and body[past].text == "(":
                k = past
        if k >= n or body[k].text != "(":
            # Not a call.  Track claim-handle escapes: `return var;` or
            # var passed as an argument of a later call is detected in
            # scan_call; `return var` handled here.
            if i > 0 and body[i - 1].text == "return" and name in claimed_vars:
                claimed_vars[name] = True
            return i + 1
        close = match_paren(body, k)
        args = body[k + 1:close]
        line = body[i].line

        # Member access? (x.load(...) / p->load(...))  Qualifier? (X::f())
        prev = body[i - 1].text if i > 0 else None
        is_member = prev in (".", "->")
        qual = None
        if prev == "::" and i >= 2 and body[i - 2].kind == "ident":
            qual = body[i - 2].text

        if is_member and name in ATOMIC_OPS:
            # Only top-level argument tokens count: a memory_order inside a
            # nested call must not satisfy the outer atomic op.
            has_order = False
            depth = 0
            for a in args:
                if a.text in ("(", "[", "{"):
                    depth += 1
                elif a.text in (")", "]", "}"):
                    depth -= 1
                elif depth == 0 and a.kind == "ident" and \
                        a.text.startswith("memory_order"):
                    has_order = True
            fn.atomics.append(AtomicOp(name, line, has_order))

        # Record the call edge / classification.
        fn.calls.append(CallSite(name, line, member=is_member, qual=qual))

        if name in CLAIM_CALLS:
            var = self.assigned_var(body, i)
            chain0 = self.chain_start(body, i)
            returned = chain0 > 0 and body[chain0 - 1].text == "return"
            fn.claims.append(ClaimSite(CLAIM_CALLS[name], name, line, var,
                                       escaped=returned))
            if var is not None:
                claimed_vars.setdefault(var, False)
        if name in PUBLISH_CALLS:
            fn.publishes[PUBLISH_CALLS[name]] += 1

        # Claim handles passed into other calls escape.
        if name not in CLAIM_CALLS and name not in PUBLISH_CALLS:
            for a in args:
                if a.kind == "ident" and a.text in claimed_vars:
                    claimed_vars[a.text] = True

        # Statement-position discard?
        start = self.chain_start(body, i)
        before = body[start - 1].text if start > 0 else "{"
        after = body[close + 1].text if close + 1 < n else ";"
        if before in (";", "{", "}", ")", "else", "do") and after == ";":
            void_cast = (start >= 3 and body[start - 1].text == ")" and
                         body[start - 2].text == "void" and
                         body[start - 3].text == "(")
            stmt_pos = True
            if before == ")" and not void_cast:
                # Only `if (...) call();`-style statements: the ')' must
                # close a control clause, not an enclosing call's args.
                stmt_pos = self.closes_control_clause(body, start - 1)
            if stmt_pos:
                fn.stmt_calls.append(StmtCall(name, line, void_cast))

        # Scan arguments recursively (nested calls).
        j = k + 1
        while j < close:
            t = body[j]
            if t.text == "throw":
                fn.impurities.append(Impurity("throw", t.line, "throw"))
            elif t.text == "new":
                fn.impurities.append(Impurity("alloc", t.line, "new"))
            elif t.kind == "ident" and t.text in LOCK_TYPES:
                fn.impurities.append(Impurity("lock", t.line, t.text))
            elif t.kind == "ident" and t.text not in CPP_KEYWORDS:
                j = self.scan_ident(fn, body, j, claimed_vars)
                continue
            j += 1
        return close + 1

    @staticmethod
    def chain_start(body, i):
        """Walk back over `a.b_->c::` chains from the call-name index."""
        j = i
        while j >= 2 and body[j - 1].text in (".", "->", "::") and \
                (body[j - 2].kind == "ident" or body[j - 2].text in
                 (")", "]", "this", ">")):
            j -= 2
            # also hop over `(...)`/`[...]` suffixes: keep it simple — only
            # ident chains, which covers the repo idiom.
        return j

    @staticmethod
    def closes_control_clause(body, rp):
        """body[rp] is ')'; True if its matching '(' follows if/for/while."""
        depth = 0
        j = rp
        while j >= 0:
            t = body[j].text
            if t == ")":
                depth += 1
            elif t == "(":
                depth -= 1
                if depth == 0:
                    return j > 0 and body[j - 1].text in ("if", "for",
                                                          "while", "switch")
            j -= 1
        return False

    def assigned_var(self, body, i):
        """For a claim call at index i, find `T* var = [chain.]Claim(...)`."""
        j = self.chain_start(body, i)
        if j >= 2 and body[j - 1].text == "=" and body[j - 2].kind == "ident":
            return body[j - 2].text
        return None


# --------------------------------------------------------------------------
# clang.cindex frontend (used when python3-clang + compile DB exist).
# --------------------------------------------------------------------------

def clang_available():
    try:
        import clang.cindex  # noqa: F401
        clang.cindex.Index.create()
        return True
    except Exception:
        return False


class ClangFrontend:
    """Builds the same Model via libclang.  Precision upgrades over the
    token frontend: resolved callees (no name shadowing), canonical types
    for atomics through typedefs/auto, annotate-attribute reading."""

    def __init__(self, compile_db_dir, root, model):
        self.root = os.path.realpath(root)
        self.model = model
        self.db_dir = compile_db_dir
        self.seen = set()

    def run(self, paths):
        import clang.cindex as ci
        want = {os.path.realpath(p) for p in paths}
        index = ci.Index.create()
        try:
            db = ci.CompilationDatabase.fromDirectory(self.db_dir)
            commands = list(db.getAllCompileCommands())
        except Exception as e:
            self.model.notices.append(f"compile DB unreadable: {e}")
            return False
        parsed_any = False
        for cmd in commands:
            src = os.path.realpath(os.path.join(cmd.directory, cmd.filename))
            if not src.startswith(self.root):
                continue
            args = [a for a in list(cmd.arguments)[1:]
                    if a not in ("-c", "-o", cmd.filename, src)]
            args = [a for a in args if not a.endswith(".o")]
            args += ["-DSLICK_ANALYZE", "-Wno-everything",
                     "-Wno-unknown-attributes"]
            try:
                tu = index.parse(src, args=args)
            except Exception as e:
                self.model.notices.append(f"parse failed for {src}: {e}")
                continue
            parsed_any = True
            self.walk_tu(tu, want)
        return parsed_any

    def in_scope(self, cursor, want):
        loc = cursor.location
        if loc.file is None:
            return False
        return os.path.realpath(loc.file.name) in want

    def walk_tu(self, tu, want):
        import clang.cindex as ci
        K = ci.CursorKind
        fn_kinds = {K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                    K.DESTRUCTOR, K.FUNCTION_TEMPLATE, K.CONVERSION_FUNCTION}

        def visit(cursor):
            if cursor.kind in fn_kinds:
                if cursor.is_definition() and self.in_scope(cursor, want):
                    self.emit(cursor)
                    return
            for ch in cursor.get_children():
                visit(ch)

        visit(tu.cursor)

    def emit(self, cursor):
        import clang.cindex as ci
        K = ci.CursorKind
        loc = cursor.location
        path = os.path.relpath(os.path.realpath(loc.file.name), os.getcwd())
        key = (path, loc.line, cursor.spelling)
        if key in self.seen:
            return
        self.seen.add(key)

        parent = cursor.semantic_parent
        qname = cursor.spelling
        if parent is not None and parent.kind in (
                K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE):
            qname = f"{parent.spelling}::{cursor.spelling}"

        fn = FuncInfo(name=cursor.spelling, qname=qname, path=path,
                      line=loc.line)
        ret = cursor.result_type.spelling if cursor.result_type else ""
        fn.return_tokens = tuple(re.findall(r"\w+", ret))
        for ch in cursor.get_children():
            if ch.kind == K.ANNOTATE_ATTR:
                sp = ch.spelling or ""
                if sp == "slick::realtime":
                    fn.realtime = True
                elif sp.startswith("slick::realtime_allow:"):
                    fn.allow_reason = sp.split(":", 1)[1]
        if "[[nodiscard]]" in self.extent_text(cursor) or \
                "SLICK_NODISCARD" in self.extent_text(cursor):
            fn.nodiscard = True

        claimed = {}
        self.walk_body(fn, cursor, claimed)
        for c in fn.claims:
            if c.var and claimed.get(c.var):
                c.escaped = True
        self.model.add(fn)

    @staticmethod
    def extent_text(cursor):
        try:
            toks = [t.spelling for t in cursor.get_tokens()]
            # Only the tokens before the body brace.
            if "{" in toks:
                toks = toks[:toks.index("{")]
            return " ".join(toks)
        except Exception:
            return ""

    def walk_body(self, fn, cursor, claimed):
        import clang.cindex as ci
        K = ci.CursorKind

        def canonical(t):
            try:
                return t.get_canonical().spelling
            except Exception:
                return ""

        def visit(node, stmt_parent):
            k = node.kind
            line = node.location.line or fn.line
            if k == K.CXX_NEW_EXPR:
                fn.impurities.append(Impurity("alloc", line, "new"))
            elif k == K.CXX_THROW_EXPR:
                fn.impurities.append(Impurity("throw", line, "throw"))
            elif k == K.VAR_DECL:
                ct = canonical(node.type)
                if any(lt in ct for lt in LOCK_TYPES):
                    fn.impurities.append(Impurity("lock", line, ct))
            elif k == K.CALL_EXPR:
                name = node.spelling or ""
                fn.calls.append(CallSite(name, line))
                ref = node.referenced
                resolved_in_repo = False
                if ref is not None and ref.location.file is not None:
                    f = os.path.realpath(ref.location.file.name)
                    resolved_in_repo = f.startswith(self.root)
                if not resolved_in_repo:
                    if name in ALLOC_CALLS:
                        fn.impurities.append(Impurity("alloc", line, name))
                    elif name in BLOCKING_CALLS and name not in ATOMIC_OPS:
                        fn.impurities.append(Impurity("block", line, name))
                    elif name in LOCK_CALLS:
                        fn.impurities.append(Impurity("lock", line, name))
                if name in ATOMIC_OPS:
                    base_atomic = False
                    for ch in node.get_children():
                        ct = canonical(ch.type)
                        if "atomic" in ct:
                            base_atomic = True
                        break
                    if base_atomic:
                        has_order = any(
                            "memory_order" in canonical(a.type)
                            for a in node.get_arguments() if a is not None)
                        fn.atomics.append(AtomicOp(name, line, has_order))
                        if name == "wait":
                            fn.impurities.append(
                                Impurity("block", line, name))
                if name in CLAIM_CALLS:
                    var = None
                    if stmt_parent is not None and \
                            stmt_parent.kind == K.VAR_DECL:
                        var = stmt_parent.spelling
                    fn.claims.append(
                        ClaimSite(CLAIM_CALLS[name], name, line, var))
                    if var:
                        claimed.setdefault(var, False)
                if name in PUBLISH_CALLS:
                    fn.publishes[PUBLISH_CALLS[name]] += 1
                if name not in CLAIM_CALLS and name not in PUBLISH_CALLS:
                    for a in node.get_arguments():
                        if a is None:
                            continue
                        for d in a.walk_preorder():
                            if d.kind == K.DECL_REF_EXPR and \
                                    d.spelling in claimed:
                                claimed[d.spelling] = True
                if stmt_parent is not None and \
                        stmt_parent.kind == K.COMPOUND_STMT:
                    fn.stmt_calls.append(StmtCall(name, line, False))
            elif k == K.RETURN_STMT:
                for d in node.walk_preorder():
                    if d.kind == K.DECL_REF_EXPR and d.spelling in claimed:
                        claimed[d.spelling] = True
            for ch in node.get_children():
                visit(ch, node)

        for ch in cursor.get_children():
            if ch.kind == K.COMPOUND_STMT:
                visit(ch, None)


# --------------------------------------------------------------------------
# Checks (frontend-neutral).
# --------------------------------------------------------------------------

IMPURITY_LABEL = {
    "alloc": "heap allocation",
    "lock": "lock/condition variable",
    "block": "blocking call",
    "throw": "throw",
}


def check_purity(model):
    findings = []
    for fn in model.functions:
        if fn.allow_reason is not None and len(fn.allow_reason.strip()) < 4:
            findings.append(Finding(
                fn.path, fn.line, "allow-without-reason",
                f"{fn.qname}: SLICK_REALTIME_ALLOW must carry a written "
                f"reason (see DESIGN.md §15.4)"))
    roots = [fn for fn in model.functions if fn.realtime]
    for root in roots:
        findings.extend(walk_purity(model, root))
    return findings


def walk_purity(model, root):
    findings = []
    seen = set()
    stack = [(root, (root.qname,))]
    while stack:
        fn, chain = stack.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        if fn is not root and fn.allow_reason is not None:
            continue   # documented exception: stop the walk
        if fn is root and fn.allow_reason is not None:
            continue
        for imp in fn.impurities:
            via = " -> ".join(chain)
            findings.append(Finding(
                fn.path, imp.line, "realtime-purity",
                f"{IMPURITY_LABEL[imp.kind]} ({imp.detail}) reachable from "
                f"SLICK_REALTIME {root.qname} via {via}"))
        for call in fn.calls:
            callees = resolve_call(model, fn, call)
            defined = [c for c in callees if c.calls or c.impurities or
                       c.atomics or not _decl_only(c)]
            if defined:
                for c in defined:
                    if id(c) not in seen:
                        stack.append((c, chain + (c.qname,)))
            else:
                imp = classify_external(call.name)
                if imp is not None:
                    via = " -> ".join(chain)
                    findings.append(Finding(
                        fn.path, call.line, "realtime-purity",
                        f"{IMPURITY_LABEL[imp]} ({call.name}) reachable "
                        f"from SLICK_REALTIME {root.qname} via {via}"))
    return findings


def resolve_call(model, caller, call):
    """C++-flavoured lookup for the token frontend.  An explicit X::f()
    qualifier narrows to class X; an unqualified non-member call prefers
    same-class definitions (the repo's own helper shadows any same-named
    function elsewhere, e.g. TwoStacks::Flip vs Daba::Flip).  Member
    calls (x.f()/p->f()) keep the conservative global fan-out — the
    receiver's type is unknown at token level."""
    callees = model.by_name.get(call.name, ())
    if call.qual:
        narrowed = [c for c in callees if c.cls == call.qual]
        if narrowed:
            return narrowed
    elif not call.member and caller.cls:
        narrowed = [c for c in callees if c.cls == caller.cls]
        if narrowed:
            return narrowed
    return callees


def _decl_only(fn):
    return not fn.calls and not fn.impurities and not fn.atomics and \
        not fn.claims and not fn.stmt_calls


def classify_external(name):
    if name in ALLOC_CALLS:
        return "alloc"
    if name in BLOCKING_CALLS:
        return "block"
    if name in LOCK_CALLS:
        return "lock"
    return None


def check_claims(model):
    findings = []
    for fn in model.functions:
        for claim in fn.claims:
            if fn.publishes[claim.kind] > 0:
                continue
            if claim.escaped:
                continue
            pair = "PublishPush" if claim.kind == "push" else "ReleasePop"
            findings.append(Finding(
                fn.path, claim.line, "claim-publish",
                f"{fn.qname}: {claim.name} result neither reaches "
                f"{pair} nor escapes — a claimed slot would wedge the ring"))
    return findings


def mustuse_names(model):
    names = set(MUSTUSE_EXACT)
    for fn in model.functions:
        if MUSTUSE_NAME_RE.search(fn.name) or fn.name in MUSTUSE_EXACT:
            names.add(fn.name)
        elif fn.nodiscard or any(t in MUSTUSE_TYPES
                                 for t in fn.return_tokens):
            names.add(fn.name)
    return names


def check_ignored(model):
    findings = []
    names = mustuse_names(model)
    for fn in model.functions:
        for sc in fn.stmt_calls:
            if sc.void_cast:
                continue
            if sc.name in names or MUSTUSE_NAME_RE.search(sc.name):
                findings.append(Finding(
                    fn.path, sc.line, "ignored-result",
                    f"{fn.qname}: result of must-use call {sc.name}() is "
                    f"discarded (cast to (void) if deliberate)"))
    return findings


def check_nodiscard(model):
    findings = []
    seen = set()
    for fn in model.functions:
        mustuse = bool(MUSTUSE_NAME_RE.search(fn.name)) or \
            fn.name in MUSTUSE_EXACT or \
            any(t in MUSTUSE_TYPES for t in fn.return_tokens)
        if not mustuse or fn.nodiscard:
            continue
        # Out-of-class definitions don't repeat the attribute; the in-class
        # declaration carries it.  Skip when any same-name sibling does.
        if any(sib.nodiscard and sib.cls == fn.cls
               for sib in model.by_name.get(fn.name, ())):
            continue
        if "void" in fn.return_tokens and not \
                any(t in MUSTUSE_TYPES for t in fn.return_tokens):
            continue
        key = (fn.path, fn.line)
        if key in seen:
            continue
        seen.add(key)
        findings.append(Finding(
            fn.path, fn.line, "nodiscard-missing",
            f"{fn.qname}: must-use function lacks SLICK_NODISCARD "
            f"(src/util/annotations.h)"))
    return findings


def check_atomics(model):
    findings = []
    for fn in model.functions:
        for op in fn.atomics:
            if op.op in ATOMIC_ORDER_FREE:
                continue
            if not op.has_order:
                findings.append(Finding(
                    fn.path, op.line, "atomic-order",
                    f"{fn.qname}: atomic {op.op}() without an explicit "
                    f"std::memory_order (defaulted seq_cst hides intent)"))
    return findings


ALL_CHECKS = (check_purity, check_claims, check_ignored, check_nodiscard,
              check_atomics)


# --------------------------------------------------------------------------
# Suppression + driver.
# --------------------------------------------------------------------------

def load_lines(path, cache={}):
    if path not in cache:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                cache[path] = f.read().split("\n")
        except OSError:
            cache[path] = []
    return cache[path]


def suppressed(finding):
    lines = load_lines(finding.path)
    for ln in (finding.line, finding.line - 1):
        if 1 <= ln <= len(lines):
            m = ALLOW_RE.search(lines[ln - 1])
            if m:
                rules = {r.strip() for r in m.group(1).split(",")}
                if finding.rule in rules:
                    return True
    return False


# Seeded-violation corpora must never leak into a directory scan of the
# real tree; explicit file arguments still reach them (the fixture tests
# pass the fixture directory explicitly).
EXCLUDE_PARTS = ("tools/analyze/fixtures", "tools/lint/fixtures")


def collect_files(paths, exts=(".h", ".hpp", ".cc", ".cpp")):
    out = []
    explicit_dirs = [os.path.normpath(p) for p in paths]
    for p in paths:
        if os.path.isdir(p):
            for dirpath, _dirnames, filenames in os.walk(p):
                norm = os.path.normpath(dirpath)
                if any(x in norm for x in EXCLUDE_PARTS) and \
                        not any(x in d for d in explicit_dirs
                                for x in EXCLUDE_PARTS):
                    continue
                for fname in sorted(filenames):
                    if fname.endswith(exts):
                        out.append(os.path.join(dirpath, fname))
        elif os.path.isfile(p):
            out.append(p)
        else:
            print(f"slick-analyzer: no such path: {p}", file=sys.stderr)
            return None
    return sorted(set(out))


def build_model(files, frontend, compile_db, root):
    model = Model()
    used = "tokens"
    if frontend in ("auto", "clang") and compile_db and clang_available():
        fe = ClangFrontend(os.path.dirname(compile_db) or ".", root, model)
        if fe.run(files):
            used = "clang"
        else:
            model = Model()
    elif frontend == "clang":
        print("slick-analyzer: error: --frontend clang requested but the "
              "python clang module (python3-clang) or libclang is "
              "unavailable", file=sys.stderr)
        return None, None
    if used == "tokens":
        if frontend == "auto":
            model.notices.append(
                "libclang unavailable — using the token-level fallback "
                "frontend (name-based resolution; see DESIGN.md §15.2)")
        for path in files:
            try:
                with open(path, encoding="utf-8", errors="replace") as f:
                    text = f.read()
            except OSError as e:
                print(f"slick-analyzer: cannot read {path}: {e}",
                      file=sys.stderr)
                return None, None
            TokenFileParser(path, text, model).run()
    return model, used


def analyze(files, frontend="auto", compile_db=None, root="."):
    model, used = build_model(files, frontend, compile_db, root)
    if model is None:
        return None, None, None
    findings = []
    for check in ALL_CHECKS:
        findings.extend(check(model))
    findings = [f for f in findings if not suppressed(f)]
    dedup = {}
    for f in findings:
        dedup[f.key()] = f
    findings = sorted(dedup.values(),
                      key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings, model, used


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="slick_analyzer.py",
        description="Semantic static analysis for SlickDeque hot paths "
                    "(see module docstring / DESIGN.md §15).")
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories (default: src/)")
    ap.add_argument("--root", default=".",
                    help="repo root (default: cwd)")
    ap.add_argument("--frontend", choices=("auto", "clang", "tokens"),
                    default="auto")
    ap.add_argument("--compile-db", default=None,
                    help="path to compile_commands.json (enables the clang "
                         "frontend)")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 on findings (default behavior; kept for "
                         "CI-invocation symmetry with slick_lint.py)")
    ap.add_argument("--github", action="store_true",
                    help="emit GitHub Actions ::error annotations")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("--list-realtime", action="store_true",
                    help="list SLICK_REALTIME-annotated functions and exit")
    args = ap.parse_args(argv)

    if args.list_checks:
        for c in CHECK_IDS:
            print(c)
        return 0

    os.chdir(args.root)
    paths = args.paths or ["src"]
    compile_db = args.compile_db
    if compile_db is None:
        cand = os.path.join("build", "compile_commands.json")
        if os.path.isfile(cand):
            compile_db = cand

    files = collect_files(paths)
    if files is None:
        return 2
    if args.list_realtime:
        model, _used = build_model(files, args.frontend, compile_db,
                                   os.getcwd())
        if model is None:
            return 2
        for fn in sorted(model.functions, key=lambda f: (f.path, f.line)):
            if fn.realtime:
                print(fn.qname)
        return 0
    result = analyze(files, frontend=args.frontend, compile_db=compile_db,
                     root=os.getcwd())
    if result[0] is None:
        return 2
    findings, model, used = result
    for note in model.notices:
        print(f"slick-analyzer: note: {note}", file=sys.stderr)
    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
        if args.github:
            print(f"::error file={f.path},line={f.line},"
                  f"title=slick-analyzer {f.rule}::{f.message}")
    n = len(findings)
    nfn = len(model.functions)
    print(f"slick-analyzer [{used}]: {len(files)} file(s), {nfn} "
          f"function(s), {n} finding(s)", file=sys.stderr)
    return 1 if n else 0


if __name__ == "__main__":
    sys.exit(main())
