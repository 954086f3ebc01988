package design

// TopConfig models the top-level compile-time switch TWO_DIMENSION (§5.1):
// "When set, the island_detection_2d function is compiled into the pipeline
// instead of the original island_detection_and_centroiding, which adds
// flexibility to the pipeline without touching the core design." The
// pipeline reads it and calls Run or RunIsland1D itself.
type TopConfig struct {
	// TwoDimension selects the 2D CCL stage; false selects the original 1D
	// island detection + centroiding.
	TwoDimension bool
	// TwoD configures the 2D design (used when TwoDimension is true).
	TwoD Config
}
