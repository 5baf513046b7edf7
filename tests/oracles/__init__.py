"""Reference implementations the differential tests compare the engine against."""
