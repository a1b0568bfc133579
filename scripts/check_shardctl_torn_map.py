#!/usr/bin/env python3
"""Check that `tkmc_shardctl verify` survives one bad placement map.

Builds a remote mirror of three committed epochs under WORKDIR. The
middle epoch's placement map has a row CRC field of `zz` and is then
re-sealed, so its footer passes and the parser meets the bad field
itself. The audit must report that epoch as TORN, still list the other
two as verified, and exit 1 with a one-broken-epoch summary.

Usage: check_shardctl_torn_map.py <tkmc_shardctl> <workdir>

Exit status 0 when the audit behaves as described, 1 otherwise.
"""

import os
import shutil
import subprocess
import sys
import zlib


def sealed(body):
    """Appends the `crc32 <8 hex>` footer the checkpoint files carry."""
    return body + "crc32 %08x\n" % zlib.crc32(body.encode())


def write_epoch(remote, epoch, bad_row_crc=False):
    epoch_dir = os.path.join(remote, "epoch_%d" % epoch)
    os.makedirs(epoch_dir)
    rows = []
    for name, contents in (("rank_0.tkc", "shard %d\n" % epoch),
                           ("manifest.tkm", "manifest %d\n" % epoch)):
        with open(os.path.join(epoch_dir, name), "w") as f:
            f.write(contents)
        crc = "zz" if bad_row_crc else "%08x" % zlib.crc32(contents.encode())
        rows.append("%s %s %d %s\n" % (name, crc, len(contents), epoch_dir))
    body = "tensorkmc-placement 3\nepoch %d\nfiles %d\n%s" % (
        epoch, len(rows), "".join(rows))
    with open(os.path.join(epoch_dir, "placement.tkp"), "w") as f:
        f.write(sealed(body))


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    shardctl, workdir = sys.argv[1], sys.argv[2]
    shutil.rmtree(workdir, ignore_errors=True)
    local = os.path.join(workdir, "local")
    remote = os.path.join(workdir, "remote")
    os.makedirs(local)
    for epoch in (1, 2, 3):
        write_epoch(remote, epoch, bad_row_crc=epoch == 2)

    run = subprocess.run([shardctl, "verify", local, "--remote", remote],
                         capture_output=True, text=True)
    print(run.stdout, end="")
    print(run.stderr, end="", file=sys.stderr)
    expected = ["remote epoch_1  committed", "remote epoch_2  TORN placement map",
                "remote epoch_3  committed", "verify: 1 broken epoch(s)"]
    missing = [line for line in expected if line not in run.stdout]
    if run.returncode != 1 or missing:
        print("check_shardctl_torn_map: FAIL: exit %d, missing %s" %
              (run.returncode, missing), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
