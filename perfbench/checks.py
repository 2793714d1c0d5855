"""Output checks for every job kind.

``check(job, code, stdout, workdir)`` raises :class:`CheckFailed` when
the job's output is wrong and otherwise returns a record of the output
(set bitmasks and masses, values, image digests) that
:func:`compare_reference` can hold against the values recorded for the
same job at the default seed.

Printed set names are re-parsed with the program's own parser
(``fusionkit.algebra.parse_expr``), never named through
``Frame.name_of``: naming fills the program's name cache, and the checks
must not warm it for later jobs.  Expected totals come from the facts
the generator recorded, not from the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

#: Absolute tolerance for full-precision output (JSON floats, csv %.12g).
TOL = 1e-9
#: Text tables print masses with three decimals.
TEXT_STEP = 5e-4


class CheckFailed(Exception):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- parsing printed output ---------------------------------------------------


def _no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    require(len(keys) == len(set(keys)), f"duplicate keys {keys}")
    return dict(pairs)


def json_docs(text: str) -> list:
    """Every JSON document in ``text``, in order."""
    dec = json.JSONDecoder(object_pairs_hook=_no_duplicates)
    docs, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return docs
        try:
            doc, pos = dec.raw_decode(text, pos)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"bad JSON output: {exc}") from None
        docs.append(doc)


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CheckFailed(f"bad number {text!r}") from None


def text_table(head: str, body: str) -> list:
    names, values = head.split(), body.split()
    require(len(names) == len(values) and names, f"bad table {head!r} / {body!r}")
    return [(n, _number(v)) for n, v in zip(names, values)]


def csv_table(text: str) -> list:
    lines = text.strip("\n").split("\n")
    require(len(lines) == 2, f"csv output has {len(lines)} lines")
    names, values = lines[0].split(","), lines[1].split(",")
    require(len(names) == len(values), "csv header and row differ in length")
    return [(n, _number(v)) for n, v in zip(names, values)]


class Sets:
    """Re-parses printed names over one job's frame and model."""

    def __init__(self, labels, model_exprs):
        from fusionkit.algebra import EmptinessModel, Frame, parse_expr

        self.frame = Frame(tuple(labels))
        self.forced = EmptinessModel.from_exprs(self.frame, model_exprs).forced_empty_bits
        self._parse = parse_expr
        self._memo: dict = {}

    def bits(self, name: str, reduce: bool = False) -> int:
        bits = self._memo.get(name)
        if bits is None:
            try:
                bits = self._parse(self.frame, name).bits
            except ValueError as exc:
                raise CheckFailed(f"printed name {name!r} does not parse: {exc}") from None
            self._memo[name] = bits
        return bits & ~self.forced if reduce else bits

    def masses(self, pairs, reduce: bool = False) -> dict:
        """{bits: mass} from (name, mass) pairs; two names for one set
        (modulo the model when ``reduce``) fail the check."""
        out: dict = {}
        for name, v in pairs:
            b = self.bits(name, reduce)
            require(b not in out, f"two printed names for one set ({name!r})")
            require(math.isfinite(v) and v >= -TOL, f"mass {v} on {name!r}")
            out[b] = v
        return out


def _tol(fmt: str, terms: int) -> float:
    return TOL + (TEXT_STEP * terms if fmt == "text" else 0.0)


def require_total(masses, expected: float, fmt: str, what: str, extra_terms=0):
    total = math.fsum(masses.values()) if isinstance(masses, dict) else masses
    tol = _tol(fmt, (len(masses) if isinstance(masses, dict) else 1) + extra_terms)
    require(abs(total - expected) <= tol,
            f"{what}: total {total!r}, expected {expected!r}")


def _record_masses(**sections) -> dict:
    return {"masses": {k: {str(b): v for b, v in sorted(m.items())}
                       for k, m in sections.items()}}


# --- fusion jobs --------------------------------------------------------------


def _bba_output(sets: Sets, fmt: str, stdout: str):
    """Masses of one printed assignment plus whatever follows it."""
    if fmt == "json":
        docs = json_docs(stdout)
        require(docs and "masses" in docs[0], "no assignment in JSON output")
        return sets.masses(docs[0]["masses"].items()), docs[1:]
    if fmt == "csv":
        return sets.masses(csv_table(stdout)), []
    lines = stdout.rstrip("\n").split("\n")
    require(len(lines) >= 2, "text output too short")
    return sets.masses(text_table(lines[0], lines[1])), lines[2:]


def check_fuse(job, stdout: str) -> dict:
    e = job.expect
    sets = Sets(e["labels"], e["model"])
    fused, rest = _bba_output(sets, e["fmt"], stdout)
    if e["rule"] != "conjunctive":
        require(not rest, f"unexpected trailing output {rest!r}")
        require_total(fused, 1.0, e["fmt"], e["rule"])
        return _record_masses(fused=fused)
    conflict = 0.0
    if e["fmt"] == "json" and rest:
        require(len(rest) == 1 and "ledger" in rest[0], "bad ledger output")
        for entry in rest[0]["ledger"]:
            for name in entry["operands"] + [entry["result"]]:
                sets.bits(name)
            require(sets.bits(entry["result"]) & ~sets.forced == 0,
                    "ledger entry on a set the model keeps")
        conflict = math.fsum(entry["mass"] for entry in rest[0]["ledger"])
    elif rest:
        m = re.fullmatch(r"conflict mass: (\S+)", rest[0])
        require(m is not None and len(rest) == 1, f"bad trailing output {rest!r}")
        conflict = _number(m.group(1))
    require(all(b & ~sets.forced for b in fused), "fused mass on a model-empty set")
    require_total(math.fsum(fused.values()) + conflict, 1.0, e["fmt"],
                  "conjunctive fused + ledger", len(fused) + 1)
    return {**_record_masses(fused=fused), "conflict": conflict}


_TNORM = {
    "min": min,
    "product": lambda a, b: a * b,
    "bounded": lambda a, b: max(0.0, a + b - 1.0),
}


def _pairs(e, tnorm: str):
    """(bits1, bits2, T-norm value) for every focal pair of two sources."""
    (b1s, b2s), (m1s, m2s) = e["source_bits"], e["source_masses"]
    norm = _TNORM[tnorm]
    for b1, m1 in zip(b1s, m1s):
        for b2, m2 in zip(b2s, m2s):
            yield b1, b2, norm(m1, m2)


def check_tcn(job, stdout: str) -> dict:
    e = job.expect
    sets = Sets(e["labels"], e["model"])
    fused, rest = _bba_output(sets, e["fmt"], stdout)
    pairs = list(_pairs(e, e["tnorm"]))
    raw = math.fsum(v for _, _, v in pairs)
    conflict = math.fsum(v for b1, b2, v in pairs if b1 & b2 & ~e["forced"] == 0)
    variant = e["variant"]
    if variant in ("dempster", "pcr5_original") or (variant == "pcr5v2" and e["normalize"]):
        expected = 1.0
    elif variant == "conjunctive":
        expected = raw - conflict
        if e["fmt"] == "text" and rest:
            m = re.fullmatch(r"conflict mass: (\S+)", rest[0])
            require(m is not None, f"bad trailing output {rest!r}")
            require_total(_number(m.group(1)), conflict, "text", "tcn conflict")
    else:
        expected = raw
    require_total(fused, expected, e["fmt"], f"tcn {variant}/{e['tnorm']}")
    return _record_masses(fused=fused)


def check_ufr(job, stdout: str) -> dict:
    e = job.expect
    cfg = e["ufr"]
    sets = Sets(e["labels"], e["model"])
    fused, _ = _bba_output(sets, e["fmt"], stdout)
    if cfg.get("normalize"):
        expected = 1.0
    else:
        pairs = list(_pairs(e, cfg.get("combiner", "product")))
        expected = math.fsum(v for _, _, v in pairs)
        if cfg.get("transfer") == "discard":
            expected -= math.fsum(v for b1, b2, v in pairs if _marked(e, cfg, b1, b2))
    require_total(fused, expected, e["fmt"], f"ufr {cfg}")
    return _record_masses(fused=fused)


def _marked(e, cfg, b1: int, b2: int) -> bool:
    bits = b1 | b2 if cfg.get("star") == "disjunctive" else b1 & b2
    spec = cfg.get("transferable", "model_empty")
    if spec == "model_empty":
        return bits & ~e["forced"] == 0
    if spec == "never":
        return False
    return bits in e["listed_bits"]


_UFT_SECTIONS = {
    "fused:": "fused",
    "lower (closed):": "lower_closed",
    "lower (open):": "lower_open",
    "middle:": "middle",
    "upper:": "upper",
}
_TRANSFER_RE = re.compile(r"  \((.*)\) (\S+) \[(\w+)\] -> (.*)")


def check_uft(job, stdout: str) -> dict:
    e = job.expect
    fmt = e["fmt"]
    sets = Sets(e["labels"], e["model"])
    if fmt == "csv":
        fused = sets.masses(csv_table(stdout), reduce=True)
        require_total(fused, 1.0, fmt, "uft fused")
        return _record_masses(fused=fused)
    if fmt == "json":
        docs = json_docs(stdout)
        require(len(docs) == 1, "uft JSON output is not one document")
        doc = docs[0]
        sections = {"fused": sets.masses(doc["m_uft"]["masses"].items(), reduce=True)}
        for key in ("lower_closed", "lower_open", "middle", "upper"):
            sections[key] = sets.masses(doc["m_" + key]["masses"].items())
        records = [(r["operands"], r["mass"], r["targets"]) for r in doc["audit"]]
    else:
        lines = stdout.rstrip("\n").split("\n")
        sections, records, pos = {}, [], 0
        while pos < len(lines) and lines[pos] in _UFT_SECTIONS:
            key = _UFT_SECTIONS[lines[pos]]
            require(pos + 2 < len(lines), "truncated uft table")
            sections[key] = sets.masses(text_table(lines[pos + 1], lines[pos + 2]),
                                        reduce=key == "fused")
            pos += 3
        require(len(sections) == 5 and pos < len(lines) and lines[pos] == "transfers:",
                "uft text output lacks a table or the transfers block")
        for line in lines[pos + 1:]:
            m = _TRANSFER_RE.fullmatch(line)
            require(m is not None, f"bad transfer line {line!r}")
            targets = []
            for part in m.group(4).split(", "):
                name, _, value = part.partition(": ")
                targets.append((name, _number(value)))
            records.append((m.group(1).split(" , "), _number(m.group(2)), targets))
    for key, masses in sections.items():
        require_total(masses, 1.0, fmt, f"uft {key}")
    require(records, "empty audit")
    for operands, mass, targets in records:
        require(len(operands) == len(e["source_bits"]), "audit record arity")
        for name in operands:
            sets.bits(name)
        for name, _ in targets:
            sets.bits(name)
        require_total(math.fsum(v for _, v in targets), mass, fmt,
                      "uft transfer targets", len(targets))
    audit_total = math.fsum(mass for _, mass, _ in records)
    if fmt == "json":
        require_total(audit_total, 1.0, fmt, "uft audit")
    else:  # three printed decimals per record
        require(abs(audit_total - 1.0) <= TOL + TEXT_STEP * len(records),
                f"uft audit: total {audit_total!r}")
    return {**_record_masses(**sections), "audit_records": len(records)}


def check_canon(job, stdout: str) -> dict:
    e = job.expect
    sets = Sets(e["labels"], [])
    if e["fmt"] == "json":
        docs = json_docs(stdout)
        require(len(docs) == 1, "canon JSON output is not one document")
        doc = docs[0]
        require(doc["bits"] == e["bits"], f"bits {doc['bits']} != {e['bits']}")
        require(doc["atoms"] == bin(e["bits"]).count("1"), "atom count")
        name = doc["name"]
    else:
        name = stdout.strip()
    require(sets.bits(name) == e["bits"], f"name {name!r} is not the input set")
    return {"bits": e["bits"]}


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(scale))


def check_neutro_eval(job, stdout: str) -> dict:
    docs = json_docs(stdout)
    require(len(docs) == 1 and isinstance(docs[0], list) and len(docs[0]) == 3,
            f"bad triple output {stdout!r}")
    for got, want in zip(docs[0], job.expect["value"]):
        require(_close(got, want), f"triple {docs[0]} != {job.expect['value']}")
    return {"values": docs[0]}


def check_graded(job, result) -> dict:
    _, triples = job.call[1]
    t, i, f = result.crisp_components()
    want = math.prod(math.fsum(x) for x in triples)
    require(_close(t + i + f, want, want), f"graded sum {t + i + f} != {want}")
    return {"values": [t, i, f]}


def check_klaw_mixed(job, result) -> dict:
    z, w = job.call[1]
    both = math.prod(a + b for a, b in zip(z, w))
    want = both - math.prod(z) - math.prod(w)
    require(_close(result, want, both), f"klaw_mixed {result} != {want}")
    return {"values": [result]}


def check_klaw3(job, result) -> dict:
    z, w, u = job.call[1]
    full = math.prod(a + b + c for a, b, c in zip(z, w, u))
    pairs = sum(math.prod(a + b for a, b in zip(x, y)) for x, y in ((z, w), (z, u), (w, u)))
    want = full - pairs + math.prod(z) + math.prod(w) + math.prod(u)
    require(_close(result, want, full), f"klaw3 {result} != {want}")
    return {"values": [result]}


# --- image jobs ---------------------------------------------------------------


def read_pgm(path: str):
    import numpy as np

    require(os.path.exists(path), f"missing output {os.path.basename(path)}")
    with open(path, "rb") as fh:
        data = fh.read()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", data)
    require(m is not None, "output is not a binary 8-bit PGM")
    w, h = int(m.group(1)), int(m.group(2))
    raster = data[m.end():]
    require(len(raster) == w * h, f"raster holds {len(raster)} bytes, not {w * h}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w), data


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_denoise(job, stdout: str, workdir: str) -> dict:
    px, data = read_pgm(os.path.join(workdir, "out.pgm"))
    require(list(px.shape) == job.expect["shape"], f"output shape {px.shape}")
    docs = json_docs(stdout)
    require(len(docs) == 1, "denoise report is not one document")
    report = docs[0]
    n = report["iterations"]
    require(isinstance(n, int) and 1 <= n <= 10, f"iterations {n!r}")
    trace = report["entropy_trace"]
    require(len(trace) == n + 1 and all(math.isfinite(v) and v >= 0 for v in trace),
            f"entropy trace {trace!r}")
    return {"digests": {"out.pgm": _digest(data)}, "values": trace}


def check_segment(job, stdout: str, workdir: str) -> dict:
    import numpy as np

    out = os.path.join(workdir, "out.pgm")
    px, data = read_pgm(out)
    require(list(px.shape) == job.expect["shape"], f"output shape {px.shape}")
    with open(out + ".json", "rb") as fh:
        side_bytes = fh.read()
    sidecar = json_docs(side_bytes.decode())[0]
    docs = json_docs(stdout)
    require(len(docs) == 1, "segment report is not one document")
    report = docs[0]
    n = report["objects"]
    require(report["counts"] == sidecar, "report counts differ from the sidecar")
    keys = ["background", "dam"] + [f"object_{k}" for k in range(1, n + 1)]
    require(sorted(sidecar) == sorted(keys), f"sidecar keys {sorted(sidecar)}")
    require(sum(sidecar.values()) == px.size, "sidecar counts do not cover the image")
    if "objects" in job.expect:
        require(n == job.expect["objects"], f"{n} objects, expected {job.expect['objects']}")
    levels = np.bincount(px.ravel(), minlength=256)
    step = 254 // (n + 1)
    want = np.zeros(256, dtype=np.int64)
    want[0] += sidecar["background"]
    want[255] += sidecar["dam"]
    for k in range(1, n + 1):
        want[k * step] += sidecar[f"object_{k}"]
    require(np.array_equal(levels, want), "gray levels do not match the sidecar counts")
    p = report["params"]
    return {
        "digests": {"out.pgm": _digest(data), "out.pgm.json": _digest(side_bytes)},
        "values": [p["a"], p["b"], p["c"], n],
    }


_CLI_CHECKS = {
    "expand": check_fuse,
    "fold": check_fuse,
    "fuse_wide": check_fuse,
    "tcn": check_tcn,
    "ufr": check_ufr,
    "uft_deep": check_uft,
    "uft_wide": check_uft,
    "canon": check_canon,
    "neutro_eval": check_neutro_eval,
}
_CALL_CHECKS = {
    "graded": check_graded,
    "klaw_mixed": check_klaw_mixed,
    "klaw3": check_klaw3,
}
_IMAGE_CHECKS = {
    "denoise": check_denoise,
    "segment_blobs": check_segment,
    "segment_grid": check_segment,
}


def check(job, code, output, workdir: str) -> dict:
    """Check one job; ``output`` is the captured stdout of a CLI job or
    the return value of a direct call."""
    if job.call is not None:
        return _CALL_CHECKS[job.kind](job, output)
    require(code == 0, f"exit code {code}")
    if job.kind in _IMAGE_CHECKS:
        return _IMAGE_CHECKS[job.kind](job, output, workdir)
    return _CLI_CHECKS[job.kind](job, output)


def compare_reference(record, reference, path: str = "") -> None:
    """Masses and values within TOL of the reference, digests and
    bitmasks identical.  A set missing on one side counts as mass 0."""
    if isinstance(reference, dict):
        require(isinstance(record, dict), f"{path}: not a mapping")
        if path.count("/") == 2 and path.startswith("/masses"):
            for key in set(record) | set(reference):
                a, b = record.get(key, 0.0), reference.get(key, 0.0)
                require(abs(a - b) <= TOL, f"{path}/{key}: {a!r} != reference {b!r}")
            return
        require(set(record) == set(reference), f"{path}: keys {sorted(record)}")
        for key in reference:
            compare_reference(record[key], reference[key], f"{path}/{key}")
    elif isinstance(reference, list):
        require(isinstance(record, list) and len(record) == len(reference),
                f"{path}: length differs from the reference")
        for k, (a, b) in enumerate(zip(record, reference)):
            compare_reference(a, b, f"{path}/{k}")
    elif isinstance(reference, float):
        require(abs(record - reference) <= TOL * max(1.0, abs(reference)),
                f"{path}: {record!r} != reference {reference!r}")
    else:
        require(record == reference, f"{path}: {record!r} != reference {reference!r}")
