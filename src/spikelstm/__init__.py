"""spikelstm: multiplier-free spiking LSTMs.

Train hard-activation LSTMs, convert them to spiking LSTMs (IF/LIF) with
analytically optimal bias shifts, fine-tune with surrogate gradients
jointly over weights, thresholds and leaks, and model the pipelined
execution scheme's latency and energy.
"""

__version__ = "0.1.0"

from .activations import HardActConfig, hard_sigmoid, hard_tanh
from .convert import convert, conversion_error_report
from .encoding import encode_sequence
from .energy import (OpCountReport, SpikeStats, audit_multiplier_free, count_ops_ann,
                     count_ops_snn, estimate_energy)
from .errors import SpikeLstmError
from .lstm import AnnLSTM, ClassifierHead, LSTMWeights, ann_batch_forward, ann_cell_step
from .neuron import (NEVER, LIFGateParams, NeuronState, if_avg_sigmoid, if_avg_tanh,
                     lif_avg_sigmoid, lif_first_spike_time, optimal_shift, spike,
                     spike_partials, step_sigmoid_neuron, step_tanh_neuron)
from .pipeline import (PipelineSchedule, build_schedule, latency_report, simulate_pipelined,
                       tick_trace)
from .snn import (CellStepState, ConversionPlan, SpikingLSTM, SpikingLSTMCell,
                  snn_batch_forward, snn_cell_step, snn_forward)
from .train import TrainConfig, TrainMask, ann_backward, fit, snn_backward
