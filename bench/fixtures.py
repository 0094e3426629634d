"""Write the inputs of one benchmark run: the dataset and the fixture models.

    python3 bench/fixtures.py <directory> <seed>

The set-up of ``bench/run.py`` runs this in a process of its own, so that
the fixture training and saving do not count in the run's ``peak_rss_mb``.
It writes under <directory>:

- ``data/``: ``write_synth_dataset`` of the benchmark's category
- ``fixture.ckpt``: a briefly trained PIG-Net with its Adam state
- ``fixture-model.ckpt``: the same model without Adam state, for the grid
- ``fixture.npz``: that model's parameters and state as numpy arrays, for
  the check of the loaded parameters
- ``baseline.ckpt``: the PointNet comparator trained the same way
"""

import os
import sys

from run import use_checkout_sources


def main(directory, seed):
    use_checkout_sources()
    import numpy as np
    import workloads
    from pignet.data import AugmentConfig, load_split, write_synth_dataset
    from pignet.training import TrainConfig, save_checkpoint, train_category

    data = os.path.join(directory, "data")
    write_synth_dataset(data, [workloads.CATEGORY],
                        count=workloads.TRAIN_SHAPES, seed=seed,
                        points_per_shape=workloads.POINTS_PER_SHAPE,
                        test_count=workloads.HELD_OUT_SHAPES)
    shapes = load_split(data, workloads.CATEGORY).train[
        :workloads.FIXTURE_SHAPES]
    config = TrainConfig(epochs=workloads.FIXTURE_EPOCHS, seed=seed,
                         batch_size=workloads.FIXTURE_SHAPES)
    trained = train_category(shapes, workloads.pignet_config(), config,
                             AugmentConfig(), workloads.TRAIN_POINTS)
    paths = workloads.fixture_paths(directory)
    save_checkpoint(paths["fixture"], trained.model, trained.optimizer,
                    workloads.FIXTURE_EPOCHS, trained.rng_state)
    save_checkpoint(paths["fixture_model"], trained.model)
    np.savez(paths["fixture_arrays"], **workloads.model_arrays(trained.model))
    baseline = train_category(shapes, workloads.pointnet_config(), config,
                              AugmentConfig(), workloads.TRAIN_POINTS)
    save_checkpoint(paths["baseline"], baseline.model)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], int(sys.argv[2]))
