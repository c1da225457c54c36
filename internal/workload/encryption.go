package workload

import (
	"fmt"
	"math/rand"

	"parabit/internal/bitvec"
)

// EncryptionSpec parameterizes the image-encryption case study (§5.3.3):
// Cipher(x) = Ori(x) XOR Key(x) over full-depth images.
type EncryptionSpec struct {
	NumImages int
	Width     int
	Height    int
	// BitsPerChannel is 8 in the paper (1.44 MB per 800x600 RGB image,
	// 140 GB at ~100,000 images).
	BitsPerChannel int
	Channels       int
}

// PaperEncryption returns the paper-scale configuration for a given
// image count (5,000-100,000 in Fig. 14c).
func PaperEncryption(numImages int) EncryptionSpec {
	return EncryptionSpec{NumImages: numImages, Width: 800, Height: 600, BitsPerChannel: 8, Channels: 3}
}

// ImageBytes returns one image's size.
func (s EncryptionSpec) ImageBytes() int64 {
	return int64(s.Width) * int64(s.Height) * int64(s.Channels) * int64(s.BitsPerChannel) / 8
}

// InputBytes returns the original-image working set.
func (s EncryptionSpec) InputBytes() int64 { return int64(s.NumImages) * s.ImageBytes() }

// EncryptionData is a functional instance: images, the key image, and
// golden ciphertexts.
type EncryptionData struct {
	Spec    EncryptionSpec
	Images  []*bitvec.Vector
	Key     *bitvec.Vector
	Ciphers []*bitvec.Vector
}

// GenerateEncryption builds synthetic images and one key image.
func GenerateEncryption(spec EncryptionSpec, seed int64) (*EncryptionData, error) {
	if spec.NumImages <= 0 || spec.Width <= 0 || spec.Height <= 0 ||
		spec.BitsPerChannel <= 0 || spec.Channels <= 0 {
		return nil, fmt.Errorf("workload: bad encryption spec %+v", spec)
	}
	rng := rand.New(rand.NewSource(seed))
	n := int(spec.ImageBytes())
	d := &EncryptionData{Spec: spec}
	keyBytes := make([]byte, n)
	rng.Read(keyBytes)
	d.Key = bitvec.FromBytes(keyBytes)
	for i := 0; i < spec.NumImages; i++ {
		img := make([]byte, n)
		rng.Read(img)
		v := bitvec.FromBytes(img)
		d.Images = append(d.Images, v)
		d.Ciphers = append(d.Ciphers, bitvec.Xor(v, d.Key))
	}
	return d, nil
}
