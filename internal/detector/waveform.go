package detector

import "math"

// Waveform modeling for the SiPM/PMT front end. A triggered channel's analog
// pulse is sampled by the waveform digitizer ASIC (ALPHA on ADAPT, NECTAr-
// class on CTA); the FPGA pipeline integrates the samples, subtracts the
// pedestal, and converts to photo-electron counts.

// PulseShape evaluates the normalized single-photo-electron pulse at time t
// (in sample units) after onset: a standard log-normal-ish fast-rise,
// slow-decay scintillator/SiPM response t·exp(1−t/τ)/τ, peaking at t = τ
// with amplitude 1.
func PulseShape(t, tau float64) float64 {
	if t <= 0 || tau <= 0 {
		return 0
	}
	x := t / tau
	return x * math.Exp(1-x)
}

// DigitizerConfig models one waveform digitizer channel.
type DigitizerConfig struct {
	// Samples per readout window.
	Samples int
	// Pedestal is the baseline ADC offset added to every sample.
	Pedestal int32
	// NoiseRMS is the Gaussian electronic noise per sample, in ADC counts.
	NoiseRMS float64
	// GainADC is the ADC integral corresponding to one photo-electron.
	GainADC float64
	// PulseTau is the pulse shape time constant in sample units.
	PulseTau float64
	// MaxADC saturates each sample (12-bit ADCs are typical).
	MaxADC int32
}

// DefaultDigitizer returns the configuration used by the synthetic ADAPT
// front end: 12-bit ADC, 16-sample window, pedestal 200, 2 ADC counts of
// noise, 40 ADC counts per photo-electron.
func DefaultDigitizer() DigitizerConfig {
	return DigitizerConfig{
		Samples:  16,
		Pedestal: 200,
		NoiseRMS: 2.0,
		GainADC:  40.0,
		PulseTau: 3.0,
		MaxADC:   4095,
	}
}

// DigitizeInto writes one channel's sampled waveform for a deposit of pe
// photo-electrons arriving at sample time t0 into dst (len ≥ Samples), so
// event generators can lay many channels into one contiguous backing array.
// Zero pe still produces pedestal + noise samples, which is what the
// pedestal-subtraction and zero-suppression stages must reject. Every sample
// written is clamped to be non-negative.
func (c DigitizerConfig) DigitizeInto(dst []int32, pe float64, t0 float64, rng *RNG) {
	// Normalize the pulse so its discrete integral over the window is
	// GainADC per photo-electron.
	var norm float64
	for i := 0; i < c.Samples; i++ {
		norm += PulseShape(float64(i)-t0, c.PulseTau)
	}
	if norm <= 0 {
		norm = 1
	}
	amp := pe * c.GainADC / norm
	for i := 0; i < c.Samples; i++ {
		v := float64(c.Pedestal) + amp*PulseShape(float64(i)-t0, c.PulseTau)
		if c.NoiseRMS > 0 && rng != nil {
			v += c.NoiseRMS * rng.Norm()
		}
		s := int32(math.Round(v))
		if s < 0 {
			s = 0
		}
		if c.MaxADC > 0 && s > c.MaxADC {
			s = c.MaxADC
		}
		dst[i] = s
	}
}
