"""GCN link prediction with degree-bias diagnostics, spectral error radii,
and subgroup-fairness quantification and training.

Each public name is imported from its module (``from palink.training import
train``); ``import palink`` loads every module but ``cli``."""
from . import (fairness, gcn, graphdata, metrics, pipelines, spectral, synth,
               theory, training)
# perfbench's test of ``instrument`` reads ``palink.load_dataset``.
from .graphdata import load_dataset

__version__ = "0.1.0"
