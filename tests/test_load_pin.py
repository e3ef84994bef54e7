"""Pin the document load path (``parse`` then ``validate``) on a mutation corpus.

The corpus is every gallery entry and ``random_complex`` seeds, each emitted
once as it is and again under deterministic mutations: dropped and
duplicated tokens, bad and undeclared ids, unknown kinds, fields and
reference prefixes, empty values, and comments, blank lines and tabs.  One
SHA-256 covers, per document, ``emit(parse(text))`` and the full
``validate`` report when it parses, or the ``(line, message)`` of every
``ParseError`` in order when it does not.  Columns are checked by a
property instead: each points at the offending token or value.

A change that means to alter the load path's output re-pins the digest: run
``python3 tests/test_load_pin.py`` from the repository root (with ``src``
on ``PYTHONPATH``), check the changed outputs, paste the printed
``LOAD_DIGEST`` line over the one below and say in ``CHANGES.md`` why it
moved.
"""

import hashlib
import json
import random
import re

from flowcomplex import GALLERY, ParseErrors, build, emit, parse, random_complex, validate

SEEDS = range(120)
MUTANTS_PER_DOCUMENT = 10
BAD_IDS = ("9z", "a-b", "x.y", "q!", "ü1", "_", "A_9")
ID_PART = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

LOAD_DIGEST = "e46720560a9def0569b8ee47e20fd5bffd1d6a0559727a9906a4855043d66f71"


def _tokens(line):
    return line.split(" ")


def _drop_token(rng, tokens):
    del tokens[rng.randrange(len(tokens))]


def _dup_token(rng, tokens):
    i = rng.randrange(len(tokens))
    tokens.insert(i + 1, tokens[i])


def _value_sites(tokens):
    """(token index, start, end) of every id inside a ``key=value`` token."""
    out = []
    for i, tok in enumerate(tokens):
        if "=" not in tok:
            continue
        start = tok.index("=") + 1
        for m in ID_PART.finditer(tok, start):
            if tok[m.start() - 1] in "=:," and tok[m.end():m.end() + 1] in ("", ","):
                out.append((i, m.start(), m.end()))
    return out


def _replace_id(rng, tokens, new):
    sites = _value_sites(tokens)
    if len(tokens) > 1 and tokens[0] != "surface":
        sites.append((1, 0, len(tokens[1])))
    if not sites:
        return
    i, a, b = rng.choice(sites)
    tokens[i] = tokens[i][:a] + new + tokens[i][b:]


def _bad_id(rng, tokens):
    _replace_id(rng, tokens, rng.choice(BAD_IDS))


def _undeclared_id(rng, tokens):
    _replace_id(rng, tokens, "ghost")


def _unknown_kind(rng, tokens):
    kinds = [i for i, t in enumerate(tokens) if t.startswith("kind=")]
    if tokens[0] in ("sing", "orbit") and len(tokens) > 2:
        kinds.append(2)
    if not kinds:
        tokens[0] = "blob"
        return
    i = rng.choice(kinds)
    tokens[i] = "kind=wobbly" if tokens[i].startswith("kind=") else "wobbly"


def _unknown_field(rng, tokens):
    tokens.insert(rng.randrange(1, len(tokens) + 1), rng.choice(("colour=red", "novalue", "=x")))


def _unknown_prefix(rng, tokens):
    refs = [i for i, t in enumerate(tokens) if t.startswith(("alpha=", "omega="))]
    if not refs:
        _unknown_field(rng, tokens)
        return
    i = rng.choice(refs)
    key, value = tokens[i].split("=", 1)
    prefix, rest = value.split(":", 1)
    tokens[i] = f"{key}=" + rng.choice((f"pt:{rest}", rest, f"{prefix}:", f":{rest}"))


def _empty_value(rng, tokens):
    fields = [i for i, t in enumerate(tokens) if "=" in t]
    if not fields:
        _drop_token(rng, tokens)
        return
    i = rng.choice(fields)
    key, value = tokens[i].split("=", 1)
    tokens[i] = rng.choice((f"{key}=", f"{key}={value},", f"{key}=,{value}", f"{key}={value}:x"))


def _bad_scalar(rng, tokens):
    fields = [i for i, t in enumerate(tokens) if t.split("=")[0] in ("genus", "boundary", "orientable", "isolated", "shrinks0", "shrinks1")]
    if not fields:
        _dup_token(rng, tokens)
        return
    i = rng.choice(fields)
    key = tokens[i].split("=")[0]
    tokens[i] = f"{key}=" + rng.choice(("-1", "x", "yes", "1", "true", "0"))


SYNTAX_MUTATIONS = (
    _drop_token,
    _dup_token,
    _bad_id,
    _unknown_kind,
    _unknown_field,
    _unknown_prefix,
    _empty_value,
    _bad_scalar,
)

# valid spellings that a mutation may swap for one another
KIND_VALUES = (
    ("center", "saddle", "sink", "source", "other"),
    ("periodic", "proper", "dense", "exceptional"),
    ("annulus", "region"),
    ("saddle_chain", "sing_seq", "family_seq"),
    ("point", "arc", "circle"),
)


def _swap_kind(rng, tokens):
    for i, tok in enumerate(tokens):
        value = tok.split("=", 1)[-1] if tok.startswith("kind=") or i == 2 else None
        for values in KIND_VALUES:
            if value in values:
                tokens[i] = tok[: len(tok) - len(value)] + rng.choice(values)
                return
    _undeclared_id(rng, tokens)


def _swap_prefix(rng, tokens):
    refs = [i for i, t in enumerate(tokens) if t.startswith(("alpha=", "omega="))]
    if not refs:
        _undeclared_id(rng, tokens)
        return
    i = rng.choice(refs)
    key, value = tokens[i].split("=", 1)
    tokens[i] = f"{key}={rng.choice(('sing', 'orbit', 'set'))}:{value.split(':', 1)[1]}"


def _toggle_flag(rng, tokens):
    flags = [i for i, t in enumerate(tokens) if t.startswith(("shrinks0=", "shrinks1=", "isolated="))]
    if flags and rng.randrange(2):
        i = rng.choice(flags)
        key, value = tokens[i].split("=")
        tokens[i] = f"{key}={'false' if value == 'true' else 'true'}"
    elif tokens[0] == "family":
        tokens.append(rng.choice(("shrinks0=true", "shrinks1=true")))
    else:
        _swap_kind(rng, tokens)


# well-formed records that validation may reject
SEMANTIC_MUTATIONS = (_undeclared_id, _swap_kind, _swap_prefix, _toggle_flag)


def _layout(rng, lines, at):
    """Comments, blank lines, tabs and whitespace: none of them changes the document."""
    choice = rng.randrange(5)
    if choice == 0:
        lines.insert(at, rng.choice(("# a comment", "", "   ", "\t# indented comment")))
    elif choice == 1:
        lines[at] = lines[at] + rng.choice(("  # trailing", "#x", " #"))
    elif choice == 2:
        lines[at] = lines[at].replace(" ", "\t")
    elif choice == 3:
        lines[at] = "  " + lines[at].replace(" ", "   ") + " "
    else:
        lines[at] = lines[at][: rng.randrange(len(lines[at]) + 1)] + "#" + "cut"


def _swap_lines(rng, lines, at):
    """Move a record, duplicate one, or drop one: order, duplicate ids, missing pieces."""
    choice = rng.randrange(3)
    if choice == 0:
        lines.insert(rng.randrange(len(lines) + 1), lines.pop(at))
    elif choice == 1:
        lines.insert(at, lines[at])
    else:
        del lines[at]


def _redirect_id(rng, tokens, lines):
    """Point a reference at another declared id."""
    ids = [line.split()[1] for line in lines if len(line.split()) > 1 and not line.startswith("surface")]
    if ids:
        _replace_id(rng, tokens, rng.choice(ids))


def mutate(text, rng):
    lines = text.splitlines()
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        if not lines:
            break
        at = rng.randrange(len(lines))
        roll = rng.randrange(20)
        if roll < 2:
            _layout(rng, lines, at)
        elif roll < 4:
            _swap_lines(rng, lines, at)
        elif lines[at].strip():
            tokens = _tokens(lines[at])
            if roll < 12:
                SYNTAX_MUTATIONS[roll - 4](rng, tokens)
            elif roll < 16:
                SEMANTIC_MUTATIONS[roll - 12](rng, tokens)
            else:
                _redirect_id(rng, tokens, lines)
            lines[at] = " ".join(tokens)
    return "\n".join(lines) + rng.choice(("\n", "", "\n\n"))


def mutate_records(text, rng):
    """Two to four well-formed mutations, or dropped records: a document that
    parses and may break several validation rules at once."""
    lines = text.splitlines()
    for _ in range(rng.randrange(2, 5)):
        if len(lines) < 2:
            break
        at = rng.randrange(1, len(lines))  # the surface record stays
        roll = rng.randrange(len(SEMANTIC_MUTATIONS) + 2)
        if roll == len(SEMANTIC_MUTATIONS):
            del lines[at]
            continue
        tokens = _tokens(lines[at])
        if roll < len(SEMANTIC_MUTATIONS):
            SEMANTIC_MUTATIONS[roll](rng, tokens)
        else:
            _redirect_id(rng, tokens, lines)
        lines[at] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def corpus():
    bases = [emit(build(entry.name, None)) for entry in GALLERY]
    bases += [emit(random_complex(seed)) for seed in SEEDS]
    docs = []
    for b, text in enumerate(bases):
        docs.append(text)
        for k in range(MUTANTS_PER_DOCUMENT):
            docs.append(mutate(text, random.Random(b * 1000 + k)))
            docs.append(mutate_records(text, random.Random(-(b * 1000 + k))))
    return docs


def _canonical_report(violations):
    """The report in order, with each run of ``unresolved-id`` violations of
    one owner sorted: those come from walking id sets, whose iteration
    order follows the string hash."""
    out, run = [], []
    for v in violations:
        row = [v.id, v.rule, v.detail]
        if v.rule == "unresolved-id" and (not run or run[0][0] == v.id):
            run.append(row)
            continue
        out += sorted(run)
        run = []
        if v.rule == "unresolved-id":
            run.append(row)
        else:
            out.append(row)
    return out + sorted(run)


def load_record(text):
    try:
        fc = parse(text)
    except ParseErrors as exc:
        return {"errors": [[e.line, e.message] for e in exc.errors]}
    return {"emit": emit(fc), "report": _canonical_report(validate(fc).violations)}


def load_digest(records):
    blob = json.dumps(records, sort_keys=True, ensure_ascii=True).encode()
    return hashlib.sha256(blob).hexdigest()


def test_load_path_outputs_are_pinned():
    records = [load_record(text) for text in corpus()]
    parsed = sum("emit" in r for r in records)
    invalid = sum(bool(r.get("report")) for r in records)
    # the corpus reaches all three outcomes
    assert 0 < invalid < parsed < len(records)
    assert load_digest(records) == LOAD_DIGEST


# -- columns ------------------------------------------------------------------

QUOTED = re.compile(r"'([^']*)'")
AT_HEAD = ("record is missing", "record needs", "first record", "duplicate surface")
AT_VALUE = ("must be true or false", "must be an integer", "must be non-negative", "take no kind")


def column_points_at_offender(raw, err):
    """``raw[col-1:]`` starts with the offending text the message names."""
    at = raw[err.column - 1:]
    if err.message == "bad identifier ''":
        # an empty id in a list sits right after its separator
        return raw[err.column - 2] in "=:," and (at[:1] in ("", ",", "#") or at[:1].isspace())
    if not at or at[0].isspace():
        return False
    if err.message == "point singularities need kind=":
        return at.startswith("point")
    if any(s in err.message for s in AT_HEAD):
        return at.startswith(raw.split()[0])
    if any(s in err.message for s in AT_VALUE):
        return err.column >= 2 and raw[err.column - 2] == "="
    quoted = QUOTED.search(err.message)
    assert quoted is not None, err.message
    return at.startswith(quoted.group(1))


def test_error_columns_point_at_the_offending_text():
    seen = 0
    for text in corpus():
        try:
            parse(text)
        except ParseErrors as exc:
            lines = text.splitlines()
            for err in exc.errors:
                if err.message == "missing surface record":
                    assert (err.line, err.column) == (1, 1)
                    continue
                seen += 1
                assert column_points_at_offender(lines[err.line - 1], err), (lines[err.line - 1], err)
    assert seen > 500


if __name__ == "__main__":
    print(f'LOAD_DIGEST = "{load_digest([load_record(text) for text in corpus()])}"')
