"""hetcov benchmark harness: workloads, oracle, classifier, tracing."""
