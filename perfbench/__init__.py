"""The repository benchmark: workloads, output oracle, tracing and metrics."""
