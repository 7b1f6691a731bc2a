"""YCSB workload generation: the key distributions
(:mod:`repro.workloads.distributions`) and the datasets and op streams
(:mod:`repro.workloads.ycsb`), each imported from its own module."""
