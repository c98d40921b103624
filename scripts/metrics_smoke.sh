#!/bin/sh
# Metrics-endpoint smoke test: start `ishared -mode registry` with an
# ephemeral metrics port and an `ishared -mode node` publishing to it,
# scrape /healthz and /metrics, and assert the expected metric families
# are present and that the node's register and heartbeats arrived.
# Exercises the whole observability path end to end — obs registry, HTTP
# mux, and the registry-mode instrumentation — without needing a fixed port.
set -eu

workdir=$(mktemp -d)
pid=""
nodepid=""
cleanup() {
    [ -n "$nodepid" ] && kill "$nodepid" 2>/dev/null || true
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

go build -o "$workdir/ishared" ./cmd/ishared

"$workdir/ishared" -mode registry -addr 127.0.0.1:0 -metrics-addr 127.0.0.1:0 \
    >"$workdir/stdout" 2>"$workdir/stderr" &
pid=$!

# ishared prints "metrics listening on <addr>" and then "registry listening
# on <addr> (ttl ...)" to stdout once both servers are up; poll for them
# rather than sleeping a fixed time.
addr=""
regaddr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^metrics listening on //p' "$workdir/stdout")
    regaddr=$(sed -n 's/^registry listening on \([^ ]*\) .*/\1/p' "$workdir/stdout")
    [ -n "$addr" ] && [ -n "$regaddr" ] && break
    kill -0 "$pid" 2>/dev/null || {
        echo "metrics_smoke: ishared exited early" >&2
        cat "$workdir/stderr" >&2
        exit 1
    }
    sleep 0.1
done
if [ -z "$addr" ] || [ -z "$regaddr" ]; then
    echo "metrics_smoke: never saw the metrics and registry addresses on stdout" >&2
    cat "$workdir/stdout" "$workdir/stderr" >&2
    exit 1
fi

"$workdir/ishared" -mode node -addr 127.0.0.1:0 -registry "$regaddr" -name smoke-node \
    >"$workdir/node.stdout" 2>"$workdir/node.stderr" &
nodepid=$!

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

health=$(fetch "http://$addr/healthz")
case "$health" in
*'"status":"ok"'*) ;;
*)
    echo "metrics_smoke: unexpected /healthz body: $health" >&2
    exit 1
    ;;
esac

fetch "http://$addr/metrics" >"$workdir/metrics"
for name in \
    fgcs_up \
    fgcs_registry_requests_total \
    fgcs_registry_nodes \
    fgcs_registry_alive_nodes; do
    if ! grep -q "^$name" "$workdir/metrics"; then
        echo "metrics_smoke: /metrics missing family $name" >&2
        cat "$workdir/metrics" >&2
        exit 1
    fi
done

# The node registers as a register_batch of one and heartbeats every 50 ms
# as a heartbeat_batch of one: wait for both to reach the registry's
# counters, then for its node gauge to read the one node.
count() {
    sed -n "s/^fgcs_registry_requests_total{op=\"$1\"} //p" "$workdir/metrics"
}
for _ in $(seq 1 50); do
    fetch "http://$addr/metrics" >"$workdir/metrics"
    if [ "$(count register_batch)" -ge 1 ] && [ "$(count heartbeat_batch)" -ge 1 ] &&
        grep -qx 'fgcs_registry_nodes 1' "$workdir/metrics"; then
        echo "metrics_smoke: ok ($addr serving /healthz and /metrics; node smoke-node registered and heartbeating)"
        exit 0
    fi
    kill -0 "$nodepid" 2>/dev/null || {
        echo "metrics_smoke: ishared -mode node exited early" >&2
        cat "$workdir/node.stdout" "$workdir/node.stderr" >&2
        exit 1
    }
    sleep 0.1
done
echo "metrics_smoke: the node's register_batch and heartbeat_batch never showed on /metrics, or fgcs_registry_nodes is not 1" >&2
grep '^fgcs_registry' "$workdir/metrics" >&2
exit 1
