#!/usr/bin/env python3
"""Check that `tkmc_shardctl verify` flags a sealed delta that cannot resolve.

Writes a local checkpoint store under WORKDIR: epoch 0 is a full epoch
with one shard, for rank 0; epoch 1 is a delta epoch, correctly sealed
and CRC-pinned to epoch 0, whose only shard names rank 1. Every file
parses, but the delta has no base shard to replay onto, so a resume
could never load epoch 1. The audit must report epoch 0 `chain ok`,
epoch 1 `chain BROKEN`, and exit 1 with a one-broken-epoch summary.

Usage: check_shardctl_unresolvable_delta.py <tkmc_shardctl> <workdir>

Exit status 0 when the audit behaves as described, 1 otherwise.
"""

import os
import shutil
import subprocess
import sys
import zlib


def seal(body):
    """Appends the `crc32 <8 hex>` footer; returns (file text, body CRC)."""
    crc = zlib.crc32(body.encode())
    return body + "crc32 %08x\n" % crc, crc


def shard(rank, delta):
    """One 1x1x1-cell shard (two sites, Fe and Cu), full or delta."""
    head = "tensorkmc-shard %d\nrank %d\nbox 0 0 0 1 1 1\nrng 1 2 3 4\n" \
           "vacancies 0\n" % (2 if delta else 1, rank)
    if delta:
        # No dirty pages: the delta carries only the RNG state.
        return seal(head + "base 0\npagesites 4096\ndirtypages 0 1\n")
    return seal(head + "occupation 2\n04\n")  # codes 0, 1 packed in one byte


def manifest(epoch, shard_name, shard_text, shard_crc, base=None):
    head = "tensorkmc-manifest %d\nepoch %d\n" % (2 if base else 1, epoch)
    if base:
        head += "base %d %08x\n" % base
    return seal(head + "grid 1 1 1\ncells 1 1 1 2.87\nclock 0 %d 0 0\n"
                "tstop 1e-08\nseed 7\nshards 1\n%s %08x %d\n" %
                (epoch, shard_name, shard_crc, len(shard_text)))


def write_epoch(local, epoch, shard_name, shard_text, manifest_text):
    epoch_dir = os.path.join(local, "epoch_%d" % epoch)
    os.makedirs(epoch_dir)
    for name, text in ((shard_name, shard_text),
                       ("manifest.tkm", manifest_text)):
        with open(os.path.join(epoch_dir, name), "w") as f:
            f.write(text)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    shardctl, workdir = sys.argv[1], sys.argv[2]
    shutil.rmtree(workdir, ignore_errors=True)
    local = os.path.join(workdir, "local")

    full_text, full_crc = shard(0, delta=False)
    base_text, base_crc = manifest(0, "rank_0.tkc", full_text, full_crc)
    write_epoch(local, 0, "rank_0.tkc", full_text, base_text)
    delta_text, delta_crc = shard(1, delta=True)
    delta_manifest = manifest(1, "rank_1.tkc", delta_text, delta_crc,
                              base=(0, base_crc))[0]
    write_epoch(local, 1, "rank_1.tkc", delta_text, delta_manifest)

    run = subprocess.run([shardctl, "verify", local],
                         capture_output=True, text=True)
    print(run.stdout, end="")
    print(run.stderr, end="", file=sys.stderr)
    lines = run.stdout.splitlines()
    wanted = [("epoch_0", "full", "chain ok"),
              ("epoch_1", "delta", "chain BROKEN")]
    missing = [w for w in wanted
               if not any(all(part in line for part in w) for line in lines)]
    if run.returncode != 1 or missing or \
            "verify: 1 broken epoch(s)" not in lines:
        print("check_shardctl_unresolvable_delta: FAIL: exit %d, missing %s" %
              (run.returncode, missing), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
