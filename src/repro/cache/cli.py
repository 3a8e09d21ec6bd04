"""``python -m repro.cache`` — operate on the corpus/artifact cache.

Subcommands::

    status       counters + entry/byte totals for the cache directory
    verify       deep-check every entry (zip, checksum, fingerprint);
                 exit 1 if anything is corrupt/stale/legacy; --heal
                 quarantines what it finds
    clear        delete all entries (--quarantine to also empty quarantine)
    gc           evict oldest entries down to --max-mb / --max-bytes
    fingerprint  print the combined corpus fingerprint (CI cache key)

The cache directory defaults to ``$REPRO_GRAPH_CACHE`` or the repo's
``.graph_cache/``; override with ``--dir``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .store import ArtifactCache

__all__ = ["main"]


def _default_dir() -> Path:
    from ..generators import corpus

    return Path(corpus._CACHE_DIR)


def _corpus_fingerprints() -> dict[str, str]:
    """key -> expected fingerprint for every (graph, seed=0) corpus entry."""
    from ..generators import corpus

    return {
        corpus._cache_key(spec.name, seed=0): corpus._fingerprint(spec, seed=0)
        for spec in corpus.CORPUS
    }


def _fmt_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"  # pragma: no cover


def cmd_status(cache: ArtifactCache, args) -> int:
    status = cache.status()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    c = status["counters"]
    print(f"cache {status['root']}")
    print(f"  entries      {status['entries']} valid, {status['invalid_entries']} invalid, "
          f"{status['legacy_files']} legacy, {status['temp_files']} temp")
    print(f"  size         {_fmt_bytes(status['bytes'])} "
          f"(+{_fmt_bytes(status['quarantine_bytes'])} quarantined in "
          f"{status['quarantined_files']} files)")
    print(f"  hits         {c['hits']}")
    print(f"  misses       {c['misses']}")
    print(f"  regenerations {c['regenerations']}")
    print(f"  corruptions  {c['corruptions']}  stale {c['stale']}  "
          f"quarantined {c['quarantines']}  evictions {c['evictions']}")
    print(f"  io           {_fmt_bytes(c['bytes_read'])} read, "
          f"{_fmt_bytes(c['bytes_written'])} written")
    print(f"  time         {c['generation_seconds']:.2f}s generating, "
          f"{c['load_seconds']:.2f}s loading")
    return 0


def cmd_verify(cache: ArtifactCache, args) -> int:
    expected = _corpus_fingerprints() if not args.no_fingerprints else None
    findings = cache.verify(expected)
    bad = [f for f in findings if f["state"] != "ok"]
    if args.json:
        print(json.dumps(findings, indent=2, sort_keys=True))
    else:
        for f in findings:
            if f["state"] == "ok":
                print(f"ok       {f['key']}  ({_fmt_bytes(f.get('size', 0))})")
            else:
                print(f"{f['state']:<8} {f['key']}  {f.get('reason', '')}")
        print(f"{len(findings) - len(bad)} ok, {len(bad)} problem(s)")
    if bad and args.heal:
        moved = cache.heal(expected)
        print(f"healed: {moved} file(s) quarantined/swept")
        return 0
    return 1 if bad else 0


def cmd_clear(cache: ArtifactCache, args) -> int:
    removed = cache.clear(include_quarantine=args.quarantine)
    print(f"removed {removed} file(s) from {cache.root}")
    return 0


def cmd_gc(cache: ArtifactCache, args) -> int:
    if args.max_bytes is not None:
        cap = args.max_bytes
    else:
        cap = int(args.max_mb * 1024 * 1024)
    # snapshot sizes first: gc deletes the sidecars that record them
    sizes = {m.get("key"): m.get("size", 0) for m in cache.entries()}
    evicted = cache.gc(cap)
    reclaimed = sum(sizes.get(key, 0) for key in evicted)
    if args.json:
        print(json.dumps({"evicted": evicted, "reclaimed_bytes": reclaimed,
                          "max_bytes": cap}, indent=2))
        return 0
    print(f"evicted {len(evicted)} entr{'y' if len(evicted) == 1 else 'ies'} "
          f"({_fmt_bytes(reclaimed)} reclaimed) to fit {_fmt_bytes(cap)}")
    for key in evicted:
        print(f"  {key}  ({_fmt_bytes(sizes.get(key, 0))})")
    return 0


def cmd_fingerprint(cache: ArtifactCache, args) -> int:
    from .store import fingerprint_payload

    fps = _corpus_fingerprints()
    if args.json:
        print(json.dumps(fps, indent=2, sort_keys=True))
    else:
        # one stable line: the CI cache key for the whole corpus
        print(fingerprint_payload(fps))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.cache",
        description="inspect and manage the graph/artifact cache",
    )
    ap.add_argument("--dir", type=Path, default=None,
                    help="cache directory (default: $REPRO_GRAPH_CACHE or ./.graph_cache)")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("status", help="counters and entry totals")
    p_verify = sub.add_parser("verify", help="deep-check every entry")
    p_verify.add_argument("--heal", action="store_true",
                          help="quarantine corrupt/stale/legacy files found")
    p_verify.add_argument("--no-fingerprints", action="store_true",
                          help="skip corpus fingerprint staleness checks")
    p_clear = sub.add_parser("clear", help="delete all cache entries")
    p_clear.add_argument("--quarantine", action="store_true",
                         help="also empty the quarantine directory")
    p_gc = sub.add_parser("gc", help="size-capped eviction, oldest first")
    p_gc.add_argument("--max-mb", type=float, default=256.0)
    p_gc.add_argument("--max-bytes", type=int, default=None)
    sub.add_parser("fingerprint", help="print the corpus fingerprint (CI cache key)")

    args = ap.parse_args(argv)
    cache = ArtifactCache(args.dir if args.dir is not None else _default_dir())
    handler = {
        "status": cmd_status,
        "verify": cmd_verify,
        "clear": cmd_clear,
        "gc": cmd_gc,
        "fingerprint": cmd_fingerprint,
    }[args.command]
    try:
        return handler(cache, args)
    except BrokenPipeError:  # e.g. `... status | head`; not an error
        os.close(sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
