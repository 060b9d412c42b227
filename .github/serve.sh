# Server scaffolding shared by the CI smoke jobs.  Source it from a
# `run:` block (run from the repository root), do not execute it:
#
#   source .github/serve.sh
#   start_server 8123 --workers 2      # python -m repro serve --port 8123 ...
#   curl ... http://127.0.0.1:8123/... # the job's own assertions
#   stop_server                        # SIGTERM (graceful drain) + wait
#
# Environment assignments in front of start_server (REPRO_CHAOS=1 ...)
# reach the server process.  Until stop_server runs, an EXIT trap kills
# the server, so a failing assertion never leaves it behind.

# Poll /healthz on PORT until it answers 200 (TRIES half-second polls).
wait_healthy() {
  local port=$1 tries=${2:-120}
  for _ in $(seq 1 "$tries"); do
    curl -sf "http://127.0.0.1:$port/healthz" >/dev/null && return 0
    sleep 0.5
  done
  echo "server on port $port did not become healthy" >&2
  return 1
}

# Boot `python -m repro serve --port PORT ARGS...` in the background and
# wait until it is healthy; its pid is left in SERVER_PID.
start_server() {
  local port=$1
  shift
  PYTHONPATH=src python -m repro serve --port "$port" "$@" &
  SERVER_PID=$!
  trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT
  wait_healthy "$port"
}

# SIGTERM the server and wait for its drain; returns the server's exit
# status (append `|| true` where a non-zero exit is expected).
stop_server() {
  local status=0
  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID" || status=$?
  trap - EXIT
  return "$status"
}
