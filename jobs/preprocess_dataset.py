"""Generic batch pre-processing entrypoint: generate all speeches for a
dataset and materialize them for the run-time lookup.

The driver writes the speech table as one Parquet file into
``<out_dir>``, replacing that directory if it holds a speech table and
refusing if it holds anything else. ``<out_dir>`` is a non-empty path on
the driver's file system, plain or as a ``file://`` URI; other schemes
(``hdfs://``, ``s3a://``) are rejected.

Usage: spark-submit jobs/preprocess_dataset.py <dataset> <sf> <method> <out_dir>
e.g.   spark-submit jobs/preprocess_dataset.py flights 0.0004 G-O /tmp/speeches
"""
import sys

from repro import datasets as ds
from repro.experiments import scenario_config
from repro.pipeline.preprocess import preprocess_all
from repro.session import get_session


def main(dataset: str, sf: float, method: str, out_dir: str) -> None:
    spark = get_session(f"preprocess-{dataset}")
    data = ds.load_spark(spark, dataset, sf=sf)
    config = scenario_config(dataset)
    df = preprocess_all(spark, data, config, method=method, output_path=out_dir)
    n = df.count()
    print(f"materialized {n} speeches for {dataset} (sf={sf}) -> {out_dir}")
    spark.stop()


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), sys.argv[3], sys.argv[4])
