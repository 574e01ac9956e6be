#!/usr/bin/env python3
"""Check the repo's markdown docs for broken links, CLI drift and stale
code references.

Three independent checks, all designed to fail CI when the docs rot:

1. **Link check** — every relative markdown link in README.md and
   docs/*.md must point at an existing file, and every ``#anchor`` (in a
   relative link or an intra-document one) must match a heading of the
   target document (GitHub's heading-slug rules, simplified).

2. **CLI drift check** — every ``rcj_tool`` subcommand and ``--flag``
   the docs show in code (fenced blocks and inline spans, on lines that
   invoke ``rcj_tool``) must exist in the usage text the built
   ``rcj_tool`` binary prints. Renaming or removing a flag without
   updating the docs fails the build. Pass ``--rcj-tool PATH`` to enable
   this check (CI does); without it it is skipped.

3. **Code reference check** — every inline code span of the form
   ``Type::member`` (optionally namespace-qualified, optionally followed
   by an argument list) must name a ``Type`` and a ``member`` that both
   still occur as identifiers in the C++ sources under src/ or tools/.
   Deleting a type or member without updating the docs fails the build.

Usage:
  check_docs.py [--root REPO_ROOT] [--rcj-tool PATH/TO/rcj_tool]

Exit codes: 0 = clean, 1 = at least one problem, 2 = usage error.
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
SUBCOMMAND_RE = re.compile(r"rcj_tool\s+([a-z][a-z0-9_-]*)")
CODE_REF_RE = re.compile(
    r"`(?:[a-z_]\w*::)*([A-Z]\w*)::(\w+)(?:\([^`]*\))?`"
)
IDENTIFIER_RE = re.compile(r"[A-Za-z_]\w*")


def doc_files(root: Path) -> list[Path]:
    files = [root / "README.md"]
    files += sorted((root / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


def github_slug(heading: str) -> str:
    """GitHub's anchor slug, simplified: strip markdown/punctuation,
    lowercase, spaces to dashes."""
    text = re.sub(r"[`*_]", "", heading.strip())
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # linked headings
    text = text.lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return re.sub(r" ", "-", text)


def headings_of(path: Path) -> set:
    slugs = set()
    in_fence = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if match:
            slugs.add(github_slug(match.group(1)))
    return slugs


def check_links(files, root: Path) -> list:
    problems = []
    for doc in files:
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                path_part, _, anchor = target.partition("#")
                if path_part:
                    dest = (doc.parent / path_part).resolve()
                    if not dest.exists():
                        problems.append(
                            f"{doc.relative_to(root)}:{lineno}: broken link "
                            f"target {path_part!r}"
                        )
                        continue
                else:
                    dest = doc
                if anchor and dest.suffix == ".md":
                    if anchor not in headings_of(dest):
                        problems.append(
                            f"{doc.relative_to(root)}:{lineno}: anchor "
                            f"#{anchor} not found in {dest.name}"
                        )
    return problems


def rcj_tool_usage(binary: Path) -> str:
    """rcj_tool with no arguments prints its full usage (exit code 2)."""
    # resolve(): Path("./rcj_tool") stringifies to "rcj_tool", which exec
    # would otherwise look up on $PATH instead of in the working directory.
    proc = subprocess.run(
        [str(binary.resolve())], capture_output=True, text=True, timeout=30
    )
    usage = proc.stdout + proc.stderr
    if "usage:" not in usage:
        raise RuntimeError(
            f"{binary} printed no usage text (exit {proc.returncode})"
        )
    return usage


def documented_invocations(files):
    """Yields (doc, lineno, line) for every code line that invokes
    rcj_tool — fenced-block lines (with backslash continuations joined)
    and inline code spans."""
    for doc in files:
        lines = doc.read_text().splitlines()
        in_fence = False
        joined, start = "", 0
        for lineno, line in enumerate(lines, 1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                joined = ""
                continue
            if in_fence:
                if joined:
                    joined += " " + line.strip()
                else:
                    joined, start = line, lineno
                if joined.rstrip().endswith("\\"):
                    joined = joined.rstrip()[:-1]
                    continue
                if "rcj_tool" in joined:
                    yield doc, start, joined
                joined = ""
            else:
                for span in re.findall(r"`([^`]+)`", line):
                    if "rcj_tool" in span:
                        yield doc, lineno, span


def check_cli_drift(files, usage: str, root: Path) -> list:
    known_flags = set(FLAG_RE.findall(usage))
    known_subcommands = set(SUBCOMMAND_RE.findall(usage))
    problems = []
    for doc, lineno, code in documented_invocations(files):
        for sub in SUBCOMMAND_RE.findall(code):
            if sub not in known_subcommands:
                problems.append(
                    f"{doc.relative_to(root)}:{lineno}: documented "
                    f"subcommand 'rcj_tool {sub}' not in rcj_tool usage"
                )
        for flag in FLAG_RE.findall(code):
            if flag not in known_flags:
                problems.append(
                    f"{doc.relative_to(root)}:{lineno}: documented flag "
                    f"'{flag}' not in rcj_tool usage"
                )
    return problems


def source_identifiers(root: Path) -> set:
    """Every identifier in the C++ sources under src/ and tools/."""
    sources = list((root / "src").rglob("*.h"))
    sources += (root / "src").rglob("*.cc")
    sources += (root / "tools").glob("*.cpp")
    names = set()
    for source in sources:
        names.update(IDENTIFIER_RE.findall(source.read_text()))
    return names


def check_code_refs(files, root: Path) -> list:
    known = source_identifiers(root)
    problems = []
    for doc in files:
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            for match in CODE_REF_RE.finditer(line):
                missing = [n for n in match.groups() if n not in known]
                if missing:
                    problems.append(
                        f"{doc.relative_to(root)}:{lineno}: code reference "
                        f"{match.group(0)} names {', '.join(missing)}, which "
                        f"no source under src/ or tools/ mentions"
                    )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: this script's parent's parent)",
    )
    parser.add_argument(
        "--rcj-tool",
        type=Path,
        default=None,
        help="built rcj_tool binary; enables the CLI drift check",
    )
    args = parser.parse_args()

    files = doc_files(args.root)
    if not files:
        print("error: no markdown docs found", file=sys.stderr)
        return 2

    problems = check_links(files, args.root)
    problems += check_code_refs(files, args.root)

    if args.rcj_tool is not None:
        if not args.rcj_tool.is_file():
            print(f"error: {args.rcj_tool} not found", file=sys.stderr)
            return 2
        usage = rcj_tool_usage(args.rcj_tool)
        problems += check_cli_drift(files, usage, args.root)
        drift = "with CLI drift check"
    else:
        drift = "links only (pass --rcj-tool for the CLI drift check)"

    for problem in problems:
        print(problem)
    checked = ", ".join(str(f.relative_to(args.root)) for f in files)
    if problems:
        print(f"\n{len(problems)} problem(s) in: {checked}")
        return 1
    print(f"docs clean ({drift}): {checked}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
