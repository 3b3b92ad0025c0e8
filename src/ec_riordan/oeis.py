"""Looking up integer sequences against OEIS b-files.

A b-file is plain text, one "n a(n)" pair per line, '#' starting a comment.
Lookups resolve in three stages: fixtures bundled with the package, then a
local cache directory, then the network.  Offline mode stops after the
fixtures.  Comparison is positional with a small relative shift allowance,
since the same sequence is frequently indexed from different offsets.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from ._record import Record
from .series import Rat

OEIS_URL = "https://oeis.org/{anum}/b{digits}.txt"
CACHE_ENV = "EC_RIORDAN_CACHE"
TIMEOUT_S = 10.0  # network fetch timeout
MAX_SHIFT = 2  # largest relative offset compare_sequence tries
MIN_OVERLAP = 4  # fewest aligned terms that count as a comparison


class OEISFormatError(ValueError):
    """A b-file did not parse."""


class OEISLookupError(LookupError):
    """The sequence could not be found in the allowed sources."""


class OEISNetworkError(OSError):
    """Fetching from the network failed."""


def normalize_anum(text: str) -> str:
    s = text.strip()
    if s[:1] in ("A", "a"):
        s = s[1:]
    if not s.isdigit() or not 1 <= len(s) <= 6:
        raise ValueError(f"not an OEIS A-number: {text!r}")
    return "A" + s.zfill(6)


class BFile(Record):
    __slots__ = ("anum", "start", "values", "source")  # source: fixture, cache, or network

    def __init__(self, anum: str, start: int, values: tuple[int, ...], source: str):
        for name, value in zip(self.__slots__, (anum, start, values, source)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a BFile")

    def __hash__(self) -> int:
        return hash(self._values())

    def __len__(self) -> int:
        return len(self.values)


def parse_bfile(anum: str, text: str, source: str = "text") -> BFile:
    start: Optional[int] = None
    expect: Optional[int] = None
    values: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise OEISFormatError(f"{anum} line {lineno}: expected 'n value'")
        try:
            n, value = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise OEISFormatError(f"{anum} line {lineno}: {exc}") from None
        if start is None:
            start = expect = n
        if n != expect:
            raise OEISFormatError(
                f"{anum} line {lineno}: index {n} breaks the run (expected {expect})"
            )
        values.append(value)
        expect = n + 1
    if start is None:
        raise OEISFormatError(f"{anum}: no data lines")
    return BFile(anum, start, tuple(values), source)


def _decode(anum: str, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise OEISFormatError(f"{anum}: not UTF-8 text at byte {exc.start}") from None


def _fixture_text(anum: str) -> Optional[str]:
    from importlib import resources  # loaded on the first lookup, not on import
    box = resources.files("ec_riordan") / "oeis_data" / f"{anum}.txt"
    try:
        return box.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "ec-riordan"


def load_bfile(
    anum: str, offline: bool = False, cache_dir: Optional[Path] = None
) -> BFile:
    """Fixtures, then cache, then network.  Offline stops at fixtures."""
    anum = normalize_anum(anum)
    text = _fixture_text(anum)
    if text is not None:
        return parse_bfile(anum, text, "fixture")
    if offline:
        raise OEISLookupError(f"{anum} is not bundled and offline mode is on")

    cache = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    cached = cache / f"{anum}.txt"
    if cached.is_file():
        return parse_bfile(anum, _decode(anum, cached.read_bytes()), "cache")

    import urllib.request  # the network stack loads only when fetching

    url = OEIS_URL.format(anum=anum, digits=anum[1:])
    try:
        with urllib.request.urlopen(url, timeout=TIMEOUT_S) as resp:
            text = _decode(anum, resp.read())
    except OSError as exc:  # URLError and TimeoutError included
        raise OEISNetworkError(f"fetching {url}: {exc}") from None
    bfile = parse_bfile(anum, text, "network")
    # write a temp file and rename it, so a failed write leaves no b-file
    tmp = cache / f".{anum}.{os.getpid()}.tmp"
    try:
        cache.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, cached)
    except OSError:  # a read-only cache is not an error
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
    return bfile


class MatchResult(NamedTuple):
    offset: Optional[int]  # the shift that matched, None if none did
    compared: int
    first_mismatch: Optional[tuple[int, str, str]]  # position, ours, theirs

    @property
    def matched(self) -> bool:
        return self.offset is not None

    def to_dict(self) -> dict:
        return {
            "matched": self.matched,
            "offset": self.offset,
            "compared": self.compared,
            "first_mismatch": list(self.first_mismatch)
            if self.first_mismatch
            else None,
        }


def compare_sequence(computed: Sequence[Rat], bfile: BFile) -> MatchResult:
    """Positional comparison with relative shifts up to MAX_SHIFT.

    Shift d >= 0 aligns computed[i] with bfile.values[i + d]; d < 0 drops
    the first |d| computed terms instead.  Shifts are tried nearest first.
    """
    vals = bfile.values
    shifts = sorted(range(-MAX_SHIFT, MAX_SHIFT + 1), key=lambda d: (abs(d), d < 0))
    fallback = MatchResult(None, 0, None)  # no match: the nearest shift's mismatch
    for d in shifts:
        ours = computed[-d:] if d < 0 else computed
        theirs = vals[d:] if d >= 0 else vals
        overlap = min(len(ours), len(theirs))
        if overlap < MIN_OVERLAP:
            continue
        mismatch = None
        for i in range(overlap):
            if ours[i] != theirs[i]:
                mismatch = (i, str(ours[i]), str(theirs[i]))
                break
        if mismatch is None:
            return MatchResult(d, overlap, None)
        if fallback.first_mismatch is None:
            fallback = MatchResult(None, overlap, mismatch)
    return fallback
