// Image encryption (paper §5.3.3): Cipher = Original XOR Key, computed
// inside the SSD so plaintext never crosses the host link. Demonstrates
// the XOR round trip (encrypt, then decrypt back) and the error model.
//
// Run with: go run ./examples/encryption
package main

import (
	"bytes"
	"fmt"
	"log"

	"parabit"
	"parabit/internal/workload"
)

func main() {
	dev, err := parabit.NewDevice(parabit.WithSmallGeometry(), parabit.WithErrorModel(99))
	if err != nil {
		log.Fatal(err)
	}
	ps := dev.PageSize()

	// Tiny "images": one page each.
	spec := workload.EncryptionSpec{NumImages: 8, Width: ps / 6, Height: 2, BitsPerChannel: 8, Channels: 3}
	data, err := workload.GenerateEncryption(spec, 5)
	if err != nil {
		log.Fatal(err)
	}
	// Images are a few bytes short of a page; pad to page boundaries.
	pad := func(b []byte) []byte {
		out := make([]byte, ps)
		copy(out, b)
		return out
	}
	key := pad(data.Key.Bytes())

	fmt.Printf("encrypting %d images in-flash (XOR with key image)\n", spec.NumImages)
	var ciphers [][]byte
	for i, img := range data.Images {
		ori := pad(img.Bytes())
		// Location-free layout: original and key aligned in LSB pages.
		oriLPN, keyLPN := uint64(i*2), uint64(i*2+1)
		if err := dev.WriteOperandGroup([]uint64{oriLPN, keyLPN}, [][]byte{ori, key}); err != nil {
			log.Fatal(err)
		}
		r, err := dev.Bitwise(parabit.Xor, oriLPN, keyLPN, parabit.LocationFree)
		if err != nil {
			log.Fatal(err)
		}
		want := pad(data.Ciphers[i].Bytes())
		if !bytes.Equal(r.Data, want) {
			log.Fatalf("image %d: cipher differs from golden", i)
		}
		ciphers = append(ciphers, r.Data)
		if i == 0 {
			fmt.Printf("  per-image XOR latency: %v\n", r.Latency)
		}
	}

	// Decrypt the first image in-flash: cipher XOR key = original.
	cipherLPN, keyLPN := uint64(100), uint64(101)
	if err := dev.WriteOperandGroup([]uint64{cipherLPN, keyLPN}, [][]byte{ciphers[0], key}); err != nil {
		log.Fatal(err)
	}
	r, err := dev.Bitwise(parabit.Xor, cipherLPN, keyLPN, parabit.LocationFree)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(r.Data, pad(data.Images[0].Bytes())) {
		log.Fatal("decryption did not recover the original")
	}
	fmt.Println("  decrypt(encrypt(x)) == x verified in-flash")

	s := dev.Stats()
	fmt.Printf("device: %d bitwise ops, %d SROs, %d injected bit flips (fresh cells)\n",
		s.Op.BitwiseOps, s.Flash.SROs, s.Flash.InjectedFlips)

	// Paper scale.
	fmt.Println("\npaper scale (100,000 images, 144 GB):")
	out, err := parabit.RunExperiment("fig14c")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)
}
