"""Append-only, torn-write-tolerant join journal (checkpoint/resume).

The journal is a JSONL file: one header line describing the run
(collection fingerprint, ``tau``, ``q``, options) followed by one line
per *verified* candidate pair recording the complete, deterministic
outcome of that verification.  A join opened with ``checkpoint=`` writes
through the journal as it verifies; a restarted join replays the
recorded outcomes and verifies only the remaining pairs, producing a
result identical to an uninterrupted run.

Crash-safety contract:

* every record is written as one ``write()`` of a full line ending in
  ``"\\n"`` and flushed before the join proceeds, so a crash loses at
  most the record being written;
* on open, a final line that does not parse — or parses but lacks its
  trailing newline — is treated as a *torn write*: it is truncated away
  and its pair is simply re-verified on resume;
* a bad line **before** the end of the file is real corruption and
  raises :class:`~repro.exceptions.CheckpointError`, as does a header
  that does not match the resuming run's parameters;
* a *new* journal's header line is published atomically — written to a
  temporary sibling file, fsynced, then ``os.replace``\\ d into place —
  so even a power loss mid-creation can never leave a half-written
  header behind for a resume to trip over (``replace_file``, shared
  with the sharded-join manifest);
* ``fsync_interval=N`` additionally fsyncs the journal every ``N``
  appended records (and on close), bounding post-power-loss record loss
  to ``N`` records instead of whatever the OS page cache held.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, IO, Optional, Tuple

from repro.exceptions import CheckpointError, ParameterError

__all__ = ["VerificationRecord", "JoinJournal", "replace_file", "fsync_dir"]


def fsync_dir(path: str) -> None:
    """fsync the directory containing ``path`` (durability of renames).

    Silently skips platforms whose directories cannot be opened for
    reading — the rename itself is still atomic there.
    """
    try:
        fd = os.open(os.path.dirname(os.path.abspath(path)) or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def replace_file(path: str, data: str) -> None:
    """Atomically publish ``data`` as the contents of ``path``.

    Writes to a temporary sibling (same directory, so the rename stays
    on one filesystem), flushes and fsyncs it, ``os.replace``\\ s it over
    ``path``, then fsyncs the directory.  A crash at any point leaves
    either the old contents or the new — never a torn mixture.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    fsync_dir(path)

_HEADER_KIND = "gsimjoin-journal"
_VERSION = 1


@dataclass(frozen=True)
class VerificationRecord:
    """The deterministic outcome of verifying one candidate pair.

    ``i``/``j`` are scan positions in the join's candidate enumeration
    (stable across runs because candidate generation is deterministic).
    ``pruned_by`` mirrors :class:`repro.engine.stages.VerifyOutcome`;
    ``expansions``/``ged_seconds`` are the A* cost actually paid, so a
    resumed run's statistics replay what the original run measured.
    ``lower``/``upper`` carry the bounded verdict of a budget-exhausted
    search; ``undecided`` marks pairs whose membership the budget could
    not decide.  ``backend`` names the portfolio backend that produced
    the verdict (``"memo"`` for verdict-memo answers, ``None`` on
    filter prunes and in journals written before the portfolio existed).
    """

    i: int
    j: int
    is_result: bool
    pruned_by: Optional[str] = None
    ged: Optional[int] = None
    expansions: int = 0
    ged_seconds: float = 0.0
    undecided: bool = False
    lower: Optional[int] = None
    upper: Optional[int] = None
    backend: Optional[str] = None

    @property
    def ran_ged(self) -> bool:
        """True when the pair survived every filter and reached A*."""
        return self.pruned_by is None or self.pruned_by == "ged"

    def to_json(self) -> str:
        """One compact JSON line (without the newline).

        Every field is a JSON scalar, so the instance dict serializes
        as is — no ``dataclasses.asdict`` deep copy per record.
        """
        return json.dumps(vars(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "VerificationRecord":
        """Parse a record line written by :meth:`to_json`."""
        return cls(**json.loads(line))


class JoinJournal:
    """Write-through journal of verified pairs for one join run.

    Use :meth:`open` — it creates the file with a header on first use,
    and on reopen validates the header against ``meta`` and loads every
    completed record (tolerating a torn final line, see module docs).
    """

    def __init__(
        self,
        path: str,
        handle: IO[str],
        completed: Dict[Tuple[int, int], VerificationRecord],
        fsync_interval: Optional[int] = None,
    ) -> None:
        """Internal; use :meth:`open`."""
        self.path = path
        self._handle: Optional[IO[str]] = handle
        self.completed = completed
        self._fsync_interval = fsync_interval
        self._since_fsync = 0

    @classmethod
    def open(
        cls,
        path: "str | os.PathLike",
        meta: dict,
        fsync_interval: Optional[int] = None,
    ) -> "JoinJournal":
        """Open (or create) the journal at ``path`` for run ``meta``.

        ``meta`` must be JSON-representable and deterministic for the
        run (collection fingerprint, tau, q, options); a mismatch with
        an existing journal's header raises
        :class:`~repro.exceptions.CheckpointError` rather than silently
        resuming the wrong join.  A new journal's header is published
        atomically (tempfile + ``os.replace`` + fsync).
        ``fsync_interval=N`` fsyncs every ``N`` appends and on close
        (``None``: flush-only, the historical behaviour; ``1``: every
        record hits the platter before the join proceeds).
        """
        if fsync_interval is not None and fsync_interval < 1:
            raise ParameterError(
                f"fsync_interval must be >= 1, got {fsync_interval}"
            )
        path = os.fspath(path)
        completed: Dict[Tuple[int, int], VerificationRecord] = {}
        keep_bytes = 0
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        if exists:
            with open(path, "r", encoding="utf-8", newline="") as f:
                raw = f.read()
            lines = raw.split("\n")
            # A file of complete lines ends with "\n" -> last element "".
            torn_tail = lines.pop() if lines else ""
            offset = 0
            for lineno, line in enumerate(lines, start=1):
                nbytes = len(line.encode("utf-8")) + 1
                try:
                    payload = json.loads(line)
                    if lineno == 1:
                        cls._check_header(path, payload, meta)
                    else:
                        record = VerificationRecord(**payload)
                        completed[(record.i, record.j)] = record
                except (ValueError, TypeError) as exc:
                    if lineno == len(lines) and not torn_tail:
                        # Torn final line (despite its newline having
                        # made it to disk is impossible -- but a line
                        # cut before its newline lands in torn_tail;
                        # a cut *at* the newline parses fine).  Treat
                        # an unparseable true-last line as torn.
                        break
                    raise CheckpointError(
                        f"{path}:{lineno}: corrupt journal line: {exc}"
                    ) from exc
                offset += nbytes
            keep_bytes = offset
            if torn_tail:
                # Partial trailing write: drop it; its pair re-verifies.
                pass
            with open(path, "r+", encoding="utf-8") as f:
                f.truncate(keep_bytes)
            if keep_bytes == 0:
                exists = False
        if not exists:
            # Publish the header atomically: a crash mid-creation leaves
            # either no journal or a complete one-line journal, never a
            # half-written header that CheckpointErrors on resume.
            header = {"kind": _HEADER_KIND, "version": _VERSION, "meta": meta}
            replace_file(
                os.fspath(path), json.dumps(header, sort_keys=True) + "\n"
            )
        handle = open(path, "a", encoding="utf-8")
        return cls(path, handle, completed, fsync_interval=fsync_interval)

    @staticmethod
    def _check_header(path: str, payload: dict, meta: dict) -> None:
        if not isinstance(payload, dict) or payload.get("kind") != _HEADER_KIND:
            raise CheckpointError(f"{path}: not a gsimjoin journal")
        if payload.get("version") != _VERSION:
            raise CheckpointError(
                f"{path}: journal version {payload.get('version')!r}, "
                f"expected {_VERSION}"
            )
        # Round-trip the expected meta through JSON so tuple-vs-list and
        # similar representation differences do not cause false alarms.
        expected = json.loads(json.dumps(meta, sort_keys=True))
        if payload.get("meta") != expected:
            raise CheckpointError(
                f"{path}: journal was written by a different run "
                "(collection/tau/q/options mismatch); refusing to resume"
            )

    def append(self, record: VerificationRecord) -> None:
        """Durably record one verified pair (single write + flush).

        With ``fsync_interval=N`` the file is additionally fsynced
        every ``N`` appends, bounding what a power loss can take.
        """
        if self._handle is None:
            raise CheckpointError(f"{self.path}: journal is closed")
        self._handle.write(record.to_json() + "\n")
        self._handle.flush()
        self.completed[(record.i, record.j)] = record
        if self._fsync_interval is not None:
            self._since_fsync += 1
            if self._since_fsync >= self._fsync_interval:
                self.sync()

    def sync(self) -> None:
        """fsync the journal file (no-op when closed)."""
        if self._handle is not None:
            os.fsync(self._handle.fileno())
            self._since_fsync = 0

    def close(self) -> None:
        """Flush (and, under an fsync interval, sync) then close."""
        if self._handle is not None:
            self._handle.flush()
            if self._fsync_interval is not None:
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JoinJournal":
        """Context-manager support; closes on exit."""
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        """Close the journal even when the join dies mid-run."""
        self.close()
