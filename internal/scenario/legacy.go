package scenario

import "os"

// ParseChaos decodes a standalone chaos file — the legacy cmd/stress -config
// format, which is exactly the scenario DSL's chaos section at top level
// (JSON or the YAML subset).
func ParseChaos(data []byte, path string) (Chaos, error) {
	var c Chaos
	if err := decodeStrict(data, "chaos", "chaos schema", &c); err != nil {
		return c, loc(path, err)
	}
	if err := c.validate(); err != nil {
		return c, loc(path, err)
	}
	return c, nil
}

// LoadChaos reads and parses a standalone chaos file.
func LoadChaos(path string) (Chaos, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Chaos{}, err
	}
	return ParseChaos(data, path)
}
