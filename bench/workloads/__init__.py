"""The four named workloads; each module has ``run_e2e`` and ``run_layers``."""

from . import cluster_repeat, eval_mix, serve_read_zipf, serve_write_refresh

ALL = {
    module.NAME: module
    for module in (eval_mix, serve_read_zipf, serve_write_refresh, cluster_repeat)
}
