# Sourced by bench_snapshot.sh and bench_compare.sh: the one list of
# microbenchmarks a snapshot records and a comparison re-runs, so the two
# cannot drift apart. Override with FILTER in the environment.
FILTER="${FILTER:-Convolve|Precompute|RefSim|Gnorm|Arena|SliceMixture|Evaluate|Fault|Obs|Dse|BankConflict|CoSearch|MapperSample|NestAnalysis|SearchHundredMappings}"
