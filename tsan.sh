#!/usr/bin/env bash
# Runs tests under ThreadSanitizer (requires a nightly toolchain with the
# rust-src component: `rustup component add rust-src --toolchain nightly`).
# The serving engine's writer threads, epoch snapshot publication, group
# commit, and parallel scatter-gather are the interesting targets:
#
#   ./tsan.sh -p dc-serve
#   ./tsan.sh -p dc-durable --features fault-injection
#   ./tsan.sh --test crash_recovery          # engine-level fault harness
#   ./tsan.sh -p dc-oocore --test differential concurrent_readers_share_the_node_cache
#                                            # readers sharing a disk shard's node cache
#   ./tsan.sh                                # whole workspace
#
# Any arguments are forwarded to `cargo test`; with none, the whole
# workspace is tested. `-Z build-std` needs an explicit --target, which is
# detected from the nightly toolchain itself so this works on any host.
set -euo pipefail

TARGET=$(rustc +nightly -vV | sed -n 's/^host: //p')
if [ -z "$TARGET" ]; then
    echo "error: could not detect the nightly host target triple" >&2
    exit 1
fi

if [ "$#" -eq 0 ]; then
    set -- --workspace
fi

RUSTFLAGS="-Z sanitizer=thread" \
RUSTDOCFLAGS="-Z sanitizer=thread" \
RUST_TEST_THREADS=1 \
    cargo +nightly test -Z build-std --target "$TARGET" "$@"
