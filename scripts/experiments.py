#!/usr/bin/env python3
"""Render EXPERIMENTS.md from fresh bench output and check it.

Usage: experiments.py OUTPUTS_DIR EXPERIMENTS.md > rendered.md

EXPERIMENTS.md holds each paper bench's stdout verbatim, fenced,
between `<!-- bench:NAME -->` and `<!-- /bench -->` marker lines; the
prose around the blocks is hand-written and passes through unchanged.
OUTPUTS_DIR holds NAME.out, the stdout of one run of bench/NAME.  The
rendered document, every block replaced by that output, goes to
stdout.

A bench prints its sections under `--- TITLE ---` header lines.  A
section whose title ends in "(host-dependent)" (timings) runs up to
the next header and is left out of the check.  Any other difference
between a committed block and the fresh output is a stale block: the
script names the bench, prints a unified diff of the block on stderr
and exits 1.
"""

import difflib
import os
import re
import sys

BLOCK = re.compile(r"^<!-- bench:(\S+) -->\n(.*?)^<!-- /bench -->$",
                   re.M | re.S)
HEADER = re.compile(r"^--- (.*) ---$")
FENCE = "```\n"


def checked_lines(text):
    """The lines of @p text outside host-dependent sections."""
    out, host = [], False
    for line in text.splitlines(keepends=True):
        m = HEADER.match(line.rstrip("\n"))
        if m:
            host = m.group(1).endswith("(host-dependent)")
        if m or not host:
            out.append(line)
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    outputs, doc_path = sys.argv[1], sys.argv[2]
    with open(doc_path) as f:
        doc = f.read()

    stale = []

    def render(m):
        name, body = m.group(1), m.group(2)
        try:
            with open(os.path.join(outputs, name + ".out")) as f:
                fresh = f.read().rstrip("\n") + "\n"
        except OSError as e:
            sys.exit("experiments: no output for %s: %s" % (name, e))
        if body.startswith(FENCE) and body.endswith(FENCE):
            body = body[len(FENCE):-len(FENCE)]
        diff = list(difflib.unified_diff(
            checked_lines(body), checked_lines(fresh),
            "%s (bench:%s)" % (doc_path, name), name + ".out"))
        if diff:
            stale.append(name)
            sys.stderr.write("stale block bench:%s\n" % name)
            sys.stderr.writelines(diff)
        return "<!-- bench:%s -->\n%s%s%s<!-- /bench -->" % (
            name, FENCE, fresh, FENCE)

    rendered, blocks = BLOCK.subn(render, doc)
    sys.stdout.write(rendered)
    if blocks == 0:
        sys.exit("experiments: no bench blocks in %s" % doc_path)
    if stale:
        sys.exit("experiments: %d of %d blocks stale: %s" %
                 (len(stale), blocks, " ".join(stale)))


if __name__ == "__main__":
    main()
